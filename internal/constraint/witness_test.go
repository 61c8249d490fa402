package constraint

import (
	"reflect"
	"testing"
)

// msgs lists the Why messages of a constraint path.
func msgs(path []Constraint) []string {
	var out []string
	for _, c := range path {
		out = append(out, c.Why.Msg)
	}
	return out
}

// TestProjectWitnessExpandsConflicts: conflicts that run through
// instances of projected constraints are reported along the original
// constraints. A bound reached through an internal variable reports the
// original bound with the internal step ending the flow; a lower bound
// seeded inside the callee starts the flow at the original seed; and an
// instance inside a fragment that is projected again expands through
// both levels.
func TestProjectWitnessExpandsConflicts(t *testing.T) {
	set := testSet(t)
	notConst := C(set.MustNot("const"))
	constant := C(set.MustElem("const"))
	why := func(msg string) Reason { return Reason{Pos: "w.c:" + msg, Msg: msg} }

	sys := NewSystem(set)
	// Callee w: parameter p is copied into the local q, which is written
	// through; its result r is returned from the local i, seeded const.
	p, q, r, i := sys.Fresh(), sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(V(p), V(q), why("initializer"))
	sys.Add(V(q), notConst, why("written"))
	sys.Add(constant, V(i), why("seed"))
	sys.Add(V(i), V(r), why("returned"))
	w := sys.Project([]Var{p, r}, [2]int{0, sys.NumConstraints()})
	if got, want := msgs(w.Cons), []string{"written", "seed"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("projected reasons = %v, want %v (%v)", got, want, w.Cons)
	}

	// Caller g passes its declared-const x to w and writes w's result.
	gStart := sys.NumConstraints()
	x, p1, r1 := sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(V(x), V(p1), why("argument"))
	sys.Instantiate(w, map[Var]Var{p: p1, r: r1})
	sys.Add(V(r1), notConst, why("result written"))
	g := sys.Project([]Var{x}, [2]int{gStart, sys.NumConstraints()})

	sys.Add(constant, V(x), why("declared const"))
	// A second caller passes its own declared-const y through g.
	y := sys.Fresh()
	sys.Add(constant, V(y), why("declared const y"))
	sys.Instantiate(g, map[Var]Var{x: y})

	var got [][]string
	for _, u := range sys.Solve() {
		got = append(got, append([]string{u.Con.Why.Msg}, msgs(u.Path)...))
		if u.Con.Why.Pos == "" {
			t.Errorf("conflict lost its position: %v", u.Con)
		}
	}
	want := [][]string{
		{"written", "declared const", "argument", "initializer"},
		{"result written", "seed", "returned"},
		{"written", "declared const y", "argument", "initializer"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conflicts (sink, flow...) = %v\nwant %v", got, want)
	}
}

// TestRestrictLowerBoundsKeepSources: lower bounds reaching an interface
// variable from different original bounds project to separate
// constraints, each with its own reason, and a witness-free projection
// (Restrict) carries no fixed placeholder reason.
func TestRestrictLowerBoundsKeepSources(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	x, a, b := sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(C(set.MustElem("const")), V(a), Reason{Msg: "A"})
	sys.Add(C(set.MustElem("dynamic")), V(b), Reason{Msg: "B"})
	sys.Add(V(a), V(x), Reason{Msg: "a to x"})
	sys.Add(V(b), V(x), Reason{Msg: "b to x"})
	got := msgs(sys.Restrict([]Var{x}))
	if want := []string{"A", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("lower-bound reasons = %v, want %v", got, want)
	}
}
