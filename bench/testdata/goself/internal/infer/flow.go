package infer

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// This file implements the flow-sensitive extension sketched in Section 6
// of the paper: "assign each location a distinct type at every program
// point and add subtyping constraints between the different types. …if s
// does not perform a strong update of x we add the constraint τ1 ≤ τ2; if
// s strongly updates x then we do not add this constraint."
//
// Flow tracks a current qualifier variable per abstract location. A weak
// update links the old point to the new one (the location may retain its
// old contents); a strong update starts a fresh point constrained only by
// the incoming value. Control-flow joins create fresh points above both
// branches. This is enough to express lclint-style per-program-point
// annotations, e.g. an "uninit" qualifier that a definite assignment
// clears — exactly the analysis the paper notes the flow-insensitive
// framework cannot express.

// Flow is a flow-sensitive qualifier environment: one current qualifier
// variable per location, advanced at updates and joins.
type Flow struct {
	sys *constraint.System
	set *qual.Set
	cur map[string]constraint.Var
}

// NewFlow creates an empty flow-sensitive environment over sys.
func NewFlow(sys *constraint.System) *Flow {
	return &Flow{sys: sys, set: sys.Set(), cur: make(map[string]constraint.Var)}
}

// Declare introduces a location whose initial point carries at least the
// given element (e.g. "uninit" present for an uninitialized declaration).
func (f *Flow) Declare(name string, initial qual.Elem, why constraint.Reason) {
	v := f.sys.Fresh()
	if initial != f.set.Bottom() {
		f.sys.Add(constraint.C(initial), constraint.V(v), why)
	}
	f.cur[name] = v
}

// Use returns the location's qualifier at the current program point.
func (f *Flow) Use(name string) (constraint.Term, error) {
	v, ok := f.cur[name]
	if !ok {
		return constraint.Term{}, fmt.Errorf("infer: flow location %q not declared", name)
	}
	return constraint.V(v), nil
}

// Assert bounds the location's current point from above (a qualifier
// assertion at this program point).
func (f *Flow) Assert(name string, bound qual.Elem, why constraint.Reason) error {
	t, err := f.Use(name)
	if err != nil {
		return err
	}
	f.sys.Add(t, constraint.C(bound), why)
	return nil
}

// StrongUpdate moves the location to a fresh point constrained only by
// the incoming qualifier: the old contents are definitely overwritten, so
// no edge from the old point is added (the Section 6 rule).
func (f *Flow) StrongUpdate(name string, incoming constraint.Term, why constraint.Reason) error {
	if _, ok := f.cur[name]; !ok {
		return fmt.Errorf("infer: flow location %q not declared", name)
	}
	v := f.sys.Fresh()
	f.sys.Add(incoming, constraint.V(v), why)
	f.cur[name] = v
	return nil
}

// WeakUpdate moves the location to a fresh point that may hold either the
// old contents or the incoming value: both flow in.
func (f *Flow) WeakUpdate(name string, incoming constraint.Term, why constraint.Reason) error {
	old, ok := f.cur[name]
	if !ok {
		return fmt.Errorf("infer: flow location %q not declared", name)
	}
	v := f.sys.Fresh()
	f.sys.Add(constraint.V(old), constraint.V(v), why)
	f.sys.Add(incoming, constraint.V(v), why)
	f.cur[name] = v
	return nil
}

// Fork copies the environment for analyzing one branch of a conditional.
func (f *Flow) Fork() *Flow {
	out := &Flow{sys: f.sys, set: f.set, cur: make(map[string]constraint.Var, len(f.cur))}
	for k, v := range f.cur {
		out.cur[k] = v
	}
	return out
}

// Join merges a branch back: every location common to both environments
// gets a fresh point above both branch points; locations declared in only
// one branch go out of scope.
func (f *Flow) Join(other *Flow, why constraint.Reason) {
	merged := make(map[string]constraint.Var)
	for name, a := range f.cur {
		b, ok := other.cur[name]
		if !ok {
			continue
		}
		if a == b {
			merged[name] = a
			continue
		}
		v := f.sys.Fresh()
		f.sys.Add(constraint.V(a), constraint.V(v), why)
		f.sys.Add(constraint.V(b), constraint.V(v), why)
		merged[name] = v
	}
	f.cur = merged
}

// Widen closes a loop: back-edges make the loop-entry point absorb the
// loop-exit point, so updates inside the loop body become weak with
// respect to re-entry. Call with the environment at loop entry and the
// environment after one abstract iteration.
func (f *Flow) Widen(entry *Flow, why constraint.Reason) {
	for name, exitV := range f.cur {
		if entryV, ok := entry.cur[name]; ok && entryV != exitV {
			f.sys.Add(constraint.V(exitV), constraint.V(entryV), why)
			// Analysis after the loop sees the merged point.
			f.cur[name] = entryV
		}
	}
}
