// Package constraint implements the atomic qualifier-constraint systems of
// Section 3.1 of "A Theory of Type Qualifiers" (PLDI 1999).
//
// After the structural subtyping rules are applied, qualifier inference is
// left with constraints of the forms κ ⊑ L, L ⊑ κ and κ1 ⊑ κ2, where the κ
// are qualifier variables and the L are elements of the qualifier lattice.
// This is an atomic subtyping system over a fixed finite lattice, solvable
// in time linear in the number of constraints (Henglein & Rehof 1997). The
// solver computes both the least solution (every variable at the join of
// the constant lower bounds that reach it) and the greatest solution; a
// variable whose least and greatest solutions differ on a qualifier is
// unconstrained in that qualifier — the "could be either" verdict of the
// paper's const experiment.
//
// Constraints may carry a component mask restricting them to a sub-lattice
// of the product lattice; masked constraints express per-qualifier
// interaction rules such as the binding-time well-formedness condition
// (nothing dynamic inside something static), which relates only the
// dynamic component of two qualifier sets.
package constraint

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/qual"
)

// Var names a qualifier variable (κ in the paper).
type Var int

// Term is one side of an atomic constraint: either a qualifier variable or
// a constant lattice element.
type Term struct {
	isVar bool
	v     Var
	c     qual.Elem
}

// V wraps a variable as a Term.
func V(v Var) Term { return Term{isVar: true, v: v} }

// C wraps a constant lattice element as a Term.
func C(e qual.Elem) Term { return Term{c: e} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.isVar }

// Var returns the variable of a variable term; it panics on constants.
func (t Term) Var() Var {
	if !t.isVar {
		panic("constraint: Var called on constant term")
	}
	return t.v
}

// Const returns the lattice element of a constant term; it panics on
// variables.
func (t Term) Const() qual.Elem {
	if t.isVar {
		panic("constraint: Const called on variable term")
	}
	return t.c
}

func (t Term) String() string {
	if t.isVar {
		return fmt.Sprintf("κ%d", int(t.v))
	}
	return fmt.Sprintf("L(%#x)", uint64(t.c))
}

// Format renders the term using the qualifier set for constants.
func (t Term) Format(set *qual.Set) string {
	if t.isVar {
		return fmt.Sprintf("κ%d", int(t.v))
	}
	return set.Describe(t.c)
}

// FormatMask renders the term with constants restricted to the lattice
// components in mask, as a masked constraint sees them.
func (t Term) FormatMask(set *qual.Set, mask qual.Elem) string {
	if t.isVar {
		return fmt.Sprintf("κ%d", int(t.v))
	}
	return set.DescribeMask(t.c, mask)
}

// Reason records where and why a constraint was generated, for diagnostics.
type Reason struct {
	// Pos is a source position, typically "file:line:col"; may be empty.
	Pos string
	// Msg describes the language construct that generated the constraint,
	// e.g. `assignment to "x"` or `assertion e|¬const`.
	Msg string
}

func (r Reason) String() string {
	switch {
	case r.Pos == "" && r.Msg == "":
		return "(no provenance)"
	case r.Pos == "":
		return r.Msg
	case r.Msg == "":
		return r.Pos
	default:
		return r.Pos + ": " + r.Msg
	}
}

// Constraint is one atomic constraint L ⊑ R restricted to the components
// in Mask.
type Constraint struct {
	L, R Term
	// Mask selects the lattice components the constraint applies to.
	Mask qual.Elem
	// Why records provenance for error messages.
	Why Reason
}

func (c Constraint) String() string {
	return fmt.Sprintf("%v ⊑ %v /%#x", c.L, c.R, uint64(c.Mask))
}

// Unsat describes one unsatisfiable constraint: the least solution of the
// left side exceeds the right side on some component. Path, when present,
// traces the chain of constraints that forced the offending lower bound,
// ending at the reported constraint.
type Unsat struct {
	Con Constraint
	// Lower is the computed least value of the left side.
	Lower qual.Elem
	// Bound is the effective upper bound of the right side.
	Bound qual.Elem
	// Path lists the constraints, source first, along which the conflicting
	// qualifier flowed to the left side.
	Path []Constraint
}

func (u *Unsat) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "unsatisfiable qualifier constraint: %v (%v)", u.Con, u.Con.Why)
	for _, c := range u.Path {
		fmt.Fprintf(&b, "\n\tvia %v (%v)", c, c.Why)
	}
	return b.String()
}

// Explain renders the conflict with qualifier names resolved against set.
// Rendering is restricted to the violated constraint's mask, so in a
// product lattice shared by several analyses the message mentions only
// the conflicting analysis's components.
func (u *Unsat) Explain(set *qual.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qualifier %s does not fit under bound %s",
		set.DescribeMask(u.Lower, u.Con.Mask), set.DescribeMask(u.Bound, u.Con.Mask))
	if u.Con.Why.Pos != "" || u.Con.Why.Msg != "" {
		fmt.Fprintf(&b, " at %v", u.Con.Why)
	}
	for _, c := range u.Path {
		fmt.Fprintf(&b, "\n\tflow: %s ⊑ %s (%v)", c.L.FormatMask(set, c.Mask), c.R.FormatMask(set, c.Mask), c.Why)
	}
	return b.String()
}

// System accumulates atomic constraints over a qualifier set and solves
// them. The zero value is not usable; call NewSystem.
type System struct {
	set  *qual.Set
	n    int
	cons []Constraint

	// Edge extraction is cached incrementally: cons is append-only, so
	// the flattened edge arrays and the constant-constraint index only
	// grow by the constraints added since the previous Solve. Edge
	// indices are bucketed by their (few) distinct masks, so each mask
	// class can gather exactly its own edges instead of rescanning the
	// whole edge list per class.
	// Constant bounds flatten the same way into compact parallel
	// arrays (seeds pre-masked, no-op bounds dropped), so the per-class
	// passes stream over them instead of re-reading the wide Constraint
	// records once per class.
	ec struct {
		ncons      int
		eFrom, eTo []int32
		masks      []qual.Elem // distinct edge masks, first-seen order
		byMask     [][]int32   // edge indices per distinct mask
		loVar      []int32     // L ⊑ κ: the variable…
		loElem     []qual.Elem // …and L∩mask
		upVar      []int32     // κ ⊑ C: the variable…
		upC        []qual.Elem // …the bound…
		upMask     []qual.Elem // …and its mask…
		upIdx      []int32     // …and its constraint index
		cc         []int32     // constant ⊑ constant constraints
	}

	// Solver scratch persists across Solve calls (schemes and
	// incremental servers re-solve systems many times); see
	// solveScratch for the re-use invariants.
	scratch *solveScratch
	solBuf  []qual.Elem // lower|upper halves, reused across solves

	solved bool
	lower  []qual.Elem
	upper  []qual.Elem
	stats  SolveStats
}

// NewSystem creates an empty constraint system over the qualifier set.
func NewSystem(set *qual.Set) *System {
	return &System{set: set}
}

// Set returns the qualifier set the system is defined over.
func (s *System) Set() *qual.Set { return s.set }

// Fresh allocates a new qualifier variable.
func (s *System) Fresh() Var {
	v := Var(s.n)
	s.n++
	s.solved = false
	return v
}

// NumVars reports how many variables have been allocated.
func (s *System) NumVars() int { return s.n }

// NumConstraints reports how many constraints have been added.
func (s *System) NumConstraints() int { return len(s.cons) }

// Constraints returns the recorded constraints; the slice must not be
// modified.
func (s *System) Constraints() []Constraint { return s.cons }

// Add records the constraint l ⊑ r over the full lattice.
func (s *System) Add(l, r Term, why Reason) {
	s.AddMasked(l, r, s.set.FullMask(), why)
}

// AddMasked records the constraint l ⊑ r restricted to the components in
// mask. Trivial constraints (identical terms, or constant pairs already
// ordered) are dropped.
func (s *System) AddMasked(l, r Term, mask qual.Elem, why Reason) {
	if mask == 0 {
		return
	}
	if l.isVar && r.isVar && l.v == r.v {
		return
	}
	if !l.isVar && !r.isVar && qual.LeqMask(l.c, r.c, mask) {
		return
	}
	s.cons = append(s.cons, Constraint{L: l, R: r, Mask: mask, Why: why})
	s.solved = false
}

// AddConstraints replays previously recorded constraints, renaming
// variables through rename (variables absent from rename are kept as-is).
// It is the instantiation step of qualifier polymorphism: the constraints
// captured in a type scheme are copied with the quantified variables
// replaced by fresh ones.
func (s *System) AddConstraints(cons []Constraint, rename map[Var]Var) {
	for _, c := range cons {
		l, r := c.L, c.R
		if l.isVar {
			if nv, ok := rename[l.v]; ok {
				l = V(nv)
			}
		}
		if r.isVar {
			if nv, ok := rename[r.v]; ok {
				r = V(nv)
			}
		}
		s.AddMasked(l, r, c.Mask, c.Why)
	}
}

// Solve computes the least and greatest solutions and returns the
// unsatisfiable constraints (nil when the system is satisfiable). Solve
// may be called repeatedly; constraints added after a call invalidate the
// previous solution and are picked up by the next call.
//
// Internally Solve decomposes the system by mask class and condenses
// ⊑-cycles per class (see graph.go): the lattice components are
// partitioned into classes that every edge mask treats uniformly, so
// each class solves as an independent, unmasked subproblem in which
// every strongly-connected component runs through the fixpoint loops as
// a single node over condensed CSR adjacency. The per-variable
// solutions are broadcast back afterwards. The computed solutions — and
// therefore every diagnostic — are identical to an uncondensed solve.
func (s *System) Solve() []*Unsat {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve with tracing: when the context carries an
// obs.Tracer, each mask class emits one "solve.class" span recording
// the class mask, its participating variables and edges, and the SCCs
// the condensation collapsed. Spans are started and ended only from
// this sequential per-class loop, so traces are deterministic (see the
// obs package comment). A context without a tracer costs one value
// lookup per solve.
func (s *System) SolveContext(ctx context.Context) []*Unsat {
	tr := obs.FromContext(ctx)
	n := s.n
	top := s.set.Top()
	full := s.set.FullMask()

	ec := &s.ec
	// Pre-size the cache arrays for the new constraint range: a counting
	// pass, then one exact grow per array, instead of doubling through
	// appends — scheme fragments are small systems that fill the cache
	// exactly once, and their allocation count is what shows up in the
	// polymorphic pipeline.
	if ec.ncons < len(s.cons) {
		nvv, nlo, nup, ncc := 0, 0, 0, 0
		for i := ec.ncons; i < len(s.cons); i++ {
			c := &s.cons[i]
			switch {
			case c.L.isVar && c.R.isVar:
				nvv++
			case !c.L.isVar && c.R.isVar:
				if c.L.c&c.Mask != 0 {
					nlo++
				}
			case c.L.isVar:
				if c.Mask&^c.R.c != 0 {
					nup++
				}
			default:
				ncc++
			}
		}
		ec.eFrom = grow32(ec.eFrom, nvv)
		ec.eTo = grow32(ec.eTo, nvv)
		ec.loVar = grow32(ec.loVar, nlo)
		ec.loElem = growElem(ec.loElem, nlo)
		ec.upVar = grow32(ec.upVar, nup)
		ec.upC = growElem(ec.upC, nup)
		ec.upMask = growElem(ec.upMask, nup)
		ec.upIdx = grow32(ec.upIdx, nup)
		ec.cc = grow32(ec.cc, ncc)
	}
	lastMask, lastIdx := qual.Elem(0), -1 // consecutive constraints share masks
	for i := ec.ncons; i < len(s.cons); i++ {
		c := &s.cons[i]
		if c.L.isVar && c.R.isVar {
			ei := int32(len(ec.eFrom))
			ec.eFrom = append(ec.eFrom, int32(c.L.v))
			ec.eTo = append(ec.eTo, int32(c.R.v))
			mi := lastIdx
			if c.Mask != lastMask {
				mi = -1
				for j, m := range ec.masks {
					if m == c.Mask {
						mi = j
						break
					}
				}
				if mi < 0 {
					mi = len(ec.masks)
					ec.masks = append(ec.masks, c.Mask)
					ec.byMask = append(ec.byMask, nil)
				}
				lastMask, lastIdx = c.Mask, mi
			}
			ec.byMask[mi] = append(ec.byMask[mi], ei)
		} else if !c.L.isVar && c.R.isVar {
			if le := c.L.c & c.Mask; le != 0 {
				ec.loVar = append(ec.loVar, int32(c.R.v))
				ec.loElem = append(ec.loElem, le)
			}
		} else if c.L.isVar && !c.R.isVar {
			if c.Mask&^c.R.c != 0 { // keep only bounds that clear bits
				ec.upVar = append(ec.upVar, int32(c.L.v))
				ec.upC = append(ec.upC, c.R.c)
				ec.upMask = append(ec.upMask, c.Mask)
				ec.upIdx = append(ec.upIdx, int32(i))
			}
		} else {
			// Constant ⊑ constant: AddMasked keeps only violated pairs.
			ec.cc = append(ec.cc, int32(i))
		}
	}
	ec.ncons = len(s.cons)
	eFrom, eTo := ec.eFrom, ec.eTo
	classes := maskClasses(ec.masks, full)

	// The solution buffer persists on the System: a fresh allocation per
	// solve would make the init pass and every later write fault in cold
	// pages and churn the collector — on large corpora that costs more
	// than the fixpoint itself. Re-solves overwrite in place (nothing
	// retains the previous arrays: Lower/Upper return values).
	if len(s.solBuf) < 2*n {
		s.solBuf = make([]qual.Elem, 2*n)
	}
	sol := s.solBuf[:2*n]
	lower, upper := sol[:n:n], sol[n:2*n:2*n]
	// Every variable starts at (⊥, top); each class then meets its
	// participants' class bits down to the solved values, so variables a
	// class never relates (and lattice components outside every class)
	// stay put without any per-class broadcast over all n variables.
	for v := range lower {
		lower[v] = 0
		upper[v] = top
	}

	s.stats = SolveStats{
		Vars:        n,
		Constraints: len(s.cons),
		MaskClasses: len(classes),
	}

	// Working arrays persist on the System across Solve calls; nothing
	// is allocated lazily until a class actually has edges.
	var w *solveScratch
	if len(eFrom) > 0 {
		w = s.ensureScratch(n, len(eFrom))
	}

	for _, class := range classes {
		tc := top & class
		sp := tr.Start("solver", "solve.class",
			obs.String("mask", fmt.Sprintf("%#x", uint64(class))))
		// Gather the class's edge buckets: every distinct mask that
		// intersects the class contains it entirely (maskClasses refines
		// until that holds), so bucket membership is exact.
		kept := 0
		if w != nil {
			w.buckets = w.buckets[:0]
			for mi, m := range ec.masks {
				if m&class != 0 {
					w.buckets = append(w.buckets, ec.byMask[mi])
					kept += len(ec.byMask[mi])
				}
			}
		}
		if kept == 0 {
			// No ⊑-edges relate this class: constant bounds apply
			// directly, nothing propagates.
			for i, v := range ec.loVar {
				lower[v] |= ec.loElem[i] & class
			}
			for i, v := range ec.upVar {
				upper[v] &= ec.upC[i] | ^(ec.upMask[i] & class)
			}
			sp.SetAttr(obs.Int("edges", 0), obs.Int("vars", 0))
			sp.End()
			continue
		}
		// All further work — Tarjan, the sweeps, the broadcast — runs
		// over the dense local numbering of the class's participants.
		sc, scc, lid, touched := w.sc, w.scc, w.lid, w.touched
		off, cTo, cl, cu := w.off, w.cTo, w.cl, w.cu
		var np int
		np, w.part = classAdj(eFrom, eTo, w.buckets, lid, touched, w.part, off, w.cur, cTo)
		part := w.part
		ncomp := tarjan(np, off, cTo, nil, 0, sc, scc)
		members, mEnd := sc.members, sc.mEnd
		sp.SetAttr(obs.Int("edges", kept), obs.Int("vars", np),
			obs.Int("components", ncomp))

		// Condensation counters. Every local id participates, and
		// tarjan records each component's members contiguously, so the
		// run lengths in mEnd are the component sizes.
		s.stats.Components += ncomp
		prevEnd := int32(0)
		for c := 0; c < ncomp; c++ {
			sz := mEnd[c] - prevEnd
			prevEnd = mEnd[c]
			if sz >= 2 {
				s.stats.SCCsCollapsed++
				s.stats.VarsCollapsed += int(sz) - 1
			}
		}

		// Constant bounds attach to the variable's component: every
		// member of a component is equal on every component of the
		// class, so the seed is shared exactly. Values are kept
		// restricted to the class; for upper bounds, ^(mask∩class) keeps
		// the unconstrained class components at top. Bounds on
		// variables the class's edges never touch apply directly — they
		// propagate nowhere.
		hasLower, hasUpper := false, false
		for i := 0; i < ncomp; i++ {
			cl[i] = 0
			cu[i] = tc
		}
		for i, v := range ec.loVar {
			if seed := ec.loElem[i] & class; seed != 0 {
				if touched[v] {
					cl[scc[lid[v]]] |= seed
					hasLower = true
				} else {
					lower[v] |= seed
				}
			}
		}
		for i, v := range ec.upVar {
			if ec.upMask[i]&^ec.upC[i]&tc == 0 {
				continue // bound clears nothing in this class
			}
			bound := ec.upC[i] | ^(ec.upMask[i] & class)
			if touched[v] {
				cu[scc[lid[v]]] &= bound
				hasUpper = true
			} else {
				upper[v] &= bound
			}
		}

		// Tarjan numbers components in reverse topological order: every
		// edge leaving a component targets a lower-numbered one. The
		// least and greatest fixpoints therefore reduce to one linear
		// sweep each — lower bounds flow down the numbering, upper
		// bounds are gathered coming up — with every edge relaxed
		// exactly once and no worklist. Edges inside a component stay
		// harmless (x |= x, x &= x).
		if hasLower {
			for c := ncomp - 1; c >= 0; c-- {
				lv := cl[c]
				if lv == 0 {
					continue
				}
				mStart := int32(0)
				if c > 0 {
					mStart = mEnd[c-1]
				}
				for mi := mStart; mi < mEnd[c]; mi++ {
					u := members[mi]
					for e := off[u]; e < off[u+1]; e++ {
						cl[scc[cTo[e]]] |= lv
					}
				}
			}
		}
		// The upper sweep already loads every edge's target component, so
		// the tautological-edge counter rides along; without upper seeds
		// a dedicated scan over the collapsed components (the only place
		// such edges can exist — AddMasked rejects variable self-loops)
		// supplies it.
		if hasUpper {
			dropped := 0
			for c := 0; c < ncomp; c++ {
				acc := cu[c]
				mStart := int32(0)
				if c > 0 {
					mStart = mEnd[c-1]
				}
				for mi := mStart; mi < mEnd[c]; mi++ {
					u := members[mi]
					for e := off[u]; e < off[u+1]; e++ {
						w := scc[cTo[e]]
						if w == int32(c) {
							dropped++
						}
						acc &= cu[w]
					}
				}
				cu[c] = acc
			}
			s.stats.EdgesDropped += dropped
		} else {
			prevEnd := int32(0)
			for c := 0; c < ncomp; c++ {
				mStart := prevEnd
				prevEnd = mEnd[c]
				if prevEnd-mStart < 2 {
					continue
				}
				for mi := mStart; mi < prevEnd; mi++ {
					u := members[mi]
					for e := off[u]; e < off[u+1]; e++ {
						if scc[cTo[e]] == int32(c) {
							s.stats.EdgesDropped++
						}
					}
				}
			}
		}

		// Broadcast the class's share of the solution to the
		// participants (non-participants already hold their final
		// values); classes are disjoint, so the per-class values
		// combine exactly. The participant flags reset here, restoring
		// classAdj's precondition for the next class.
		for i, v := range part {
			lower[v] |= cl[scc[i]]
			upper[v] &= cu[scc[i]] | ^tc
			touched[v] = false
		}
		sp.End()
	}
	s.lower, s.upper, s.solved = lower, upper, true

	// A system is satisfiable iff the least solution satisfies every
	// constraint with a constant right side (conflicts always manifest at
	// such a sink; checking the propagated variable bounds as well would
	// re-report the same conflict once per constraint along the path).
	//
	// One root cause can still surface at several sinks carrying the same
	// provenance: polymorphic instantiation replays a scheme's seed and
	// sink constraints once per call site, and a declaration-level seed
	// reaches every copy. Conflicts whose origin reason, sink reason and
	// offending bits all coincide are reported once, keeping the first in
	// constraint order.
	// Violations can only involve the flattened constant-bound entries
	// (a dropped entry bounds nothing) or an always-violated constant
	// pair, so only those are checked — the wide constraint records are
	// read back solely for the (rare) violations, sorted to restore
	// constraint order.
	var viol []int32
	for i, v := range ec.upVar {
		if !qual.LeqMask(lower[v], ec.upC[i], ec.upMask[i]) {
			viol = append(viol, ec.upIdx[i])
		}
	}
	if len(ec.cc) > 0 {
		viol = append(viol, ec.cc...)
		sort.Slice(viol, func(i, j int) bool { return viol[i] < viol[j] })
	}
	return s.buildUnsats(viol)
}

// buildUnsats converts violated constraint indices (ascending, in
// constraint order) into deduplicated Unsat reports with blame paths.
func (s *System) buildUnsats(viol []int32) []*Unsat {
	var unsat []*Unsat
	var incoming *incomingCSR
	var reported map[string]bool // allocated on the first conflict
	for _, ci := range viol {
		c := &s.cons[ci]
		lv := s.valueLower(c.L)
		bound := c.R.c
		if !qual.LeqMask(lv, bound, c.Mask) {
			bad := (lv &^ bound) & c.Mask
			u := &Unsat{Con: *c, Lower: lv & c.Mask, Bound: bound | ^c.Mask}
			if c.L.isVar {
				if incoming == nil {
					incoming = buildIncomingCSR(s.cons, s.n)
				}
				u.Path = s.blame(c.L.v, bad, incoming)
			}
			origin := ""
			if len(u.Path) > 0 {
				origin = u.Path[0].Why.String()
			}
			key := fmt.Sprintf("%s\x00%s\x00%x", origin, c.Why.String(), uint64(bad))
			if reported == nil {
				reported = make(map[string]bool)
			}
			if reported[key] {
				continue
			}
			reported[key] = true
			unsat = append(unsat, u)
		}
	}
	return unsat
}

// grow32 and growElem reallocate a once, with room for exactly extra more
// elements, when its spare capacity is short of that.
func grow32(a []int32, extra int) []int32 {
	if cap(a)-len(a) >= extra {
		return a
	}
	b := make([]int32, len(a), len(a)+extra)
	copy(b, a)
	return b
}

func growElem(a []qual.Elem, extra int) []qual.Elem {
	if cap(a)-len(a) >= extra {
		return a
	}
	b := make([]qual.Elem, len(a), len(a)+extra)
	copy(b, a)
	return b
}

// Stats reports the size and condensation counters of the last Solve.
// It panics if the system has not been solved since the last
// modification.
func (s *System) Stats() SolveStats {
	s.mustSolved()
	return s.stats
}

func (s *System) valueLower(t Term) qual.Elem {
	if t.isVar {
		return s.lower[t.v]
	}
	return t.c
}

// blame searches backwards from v for the constant-to-variable constraint
// that introduced the offending qualifier bits, returning the flow path in
// source-to-sink order. The search is a layered breadth-first traversal,
// so the returned path has the fewest hops of any constraint chain that
// carries the bits to v; ties break towards the earliest constraints in
// insertion order (the frontier grows in discovery order and incoming
// lists are scanned in insertion order). Insertion order is itself
// deterministic — constraint generation walks bodies in SCC order — so
// the extracted trace is byte-identical from run to run.
func (s *System) blame(v Var, bad qual.Elem, incoming *incomingCSR) []Constraint {
	type node struct {
		v    Var
		bits qual.Elem
	}
	prev := make(map[Var]int) // var -> incoming constraint that discovered it
	seen := map[Var]bool{v: true}
	frontier := []node{{v, bad}}
	origin := -1
	var originVar Var
	for len(frontier) > 0 && origin < 0 {
		next := frontier[:0:0]
		for _, nd := range frontier {
			for ii := incoming.off[nd.v]; ii < incoming.off[nd.v+1]; ii++ {
				ci := int(incoming.cons[ii])
				c := s.cons[ci]
				bits := nd.bits & c.Mask
				if bits == 0 {
					continue
				}
				if !c.L.isVar {
					if c.L.c&bits != 0 {
						origin = ci
						originVar = nd.v
						break
					}
					continue
				}
				src := c.L.v
				if seen[src] || s.lower[src]&bits == 0 {
					continue
				}
				seen[src] = true
				prev[src] = ci
				next = append(next, node{src, bits})
			}
			if origin >= 0 {
				break
			}
		}
		frontier = next
	}
	if origin < 0 {
		return nil
	}
	// prev[src] is the edge src ⊑ parent along which the backward search
	// discovered src; following prev from the origin variable walks the
	// flow forward until it reaches v.
	path := []Constraint{s.cons[origin]}
	for at := originVar; at != v; {
		ci, ok := prev[at]
		if !ok {
			break
		}
		path = append(path, s.cons[ci])
		at = s.cons[ci].R.v
	}
	return path
}

// Lower returns the least-solution value of v. It panics if the system has
// not been solved since the last modification.
func (s *System) Lower(v Var) qual.Elem {
	s.mustSolved()
	return s.lower[v]
}

// Upper returns the greatest-solution value of v. It panics if the system
// has not been solved since the last modification.
func (s *System) Upper(v Var) qual.Elem {
	s.mustSolved()
	return s.upper[v]
}

// Forced reports whether the named qualifier is present in every solution
// for v (its least solution already carries it).
func (s *System) Forced(v Var, name string) bool {
	s.mustSolved()
	return s.set.Has(s.lower[v], name)
}

// Forbidden reports whether the named qualifier is absent from every
// solution for v (its greatest solution lacks it).
func (s *System) Forbidden(v Var, name string) bool {
	s.mustSolved()
	return !s.set.Has(s.upper[v], name)
}

// Free reports whether v may take either value of the named qualifier —
// the paper's "could be either" verdict.
func (s *System) Free(v Var, name string) bool {
	s.mustSolved()
	return !s.Forced(v, name) && !s.Forbidden(v, name)
}

func (s *System) mustSolved() {
	if !s.solved {
		panic("constraint: System not solved (call Solve after the last Add)")
	}
}

// Restrict projects the recorded constraints onto the interface variables,
// eliminating all others. The projection is exact for atomic constraints:
// it preserves, per lattice component, (1) reachability between interface
// variables, (2) the strongest constant lower bound flowing into each
// interface variable, and (3) the strongest constant upper bound flowing
// out of it. This is the scheme-simplification step the paper lists as
// future work (§6); instantiating a restricted scheme is equivalent to
// instantiating the full constraint set but much smaller.
//
// The caller must ensure the full system is satisfiable (the purely local
// constraints are checked once, at generalization time); Restrict itself
// does not re-check them.
func (s *System) Restrict(iface []Var) []Constraint {
	return Restrict(s.set, s.cons, iface)
}

// Restrict projects an arbitrary constraint slice onto the interface
// variables; see (*System).Restrict. It is used by the polymorphic
// inference to simplify the constraint fragment captured in a type scheme
// before storing it.
//
// The projection preserves, per lattice component, reachability through
// internal variables only: interface variables terminate the search, so
// paths through them are recovered by composing the kept edges. It runs
// as one masked-reachability pass per interface variable over a
// condensed graph: cycles among internal variables are collapsed first
// (interface variables stay singletons, so termination semantics are
// unchanged), and each pass propagates a per-component bitset of the
// lattice components on which the node is reachable — all components at
// once, instead of the per-variable-per-bit DFS this replaces. Constant
// bounds are pre-aggregated per condensed node, so recording them is a
// pair of mask operations rather than a map update per bit.
func Restrict(set *qual.Set, cons []Constraint, iface []Var) []Constraint {
	full := set.FullMask()
	top := set.Top()

	// Local dense ids: interface variables first (deduplicated), then
	// every other variable in first-occurrence order. The same pass
	// counts the variable-variable edges (nvv) and their internal-
	// internal subset (nii), so the edge arrays below allocate exactly
	// once each — this function runs per generalized function in the
	// polymorphic pipeline, and its fixed allocation overhead is paid
	// thousands of times.
	id := make(map[Var]int32, 2*len(iface))
	locals := make([]Var, 0, len(iface)+2*len(cons))
	lid := func(v Var) int32 {
		i, ok := id[v]
		if !ok {
			i = int32(len(locals))
			id[v] = i
			locals = append(locals, v)
		}
		return i
	}
	for _, v := range iface {
		lid(v)
	}
	nIface := len(locals)
	nvv, nii := 0, 0
	for _, c := range cons {
		if c.L.isVar && c.R.isVar {
			u, v := lid(c.L.v), lid(c.R.v)
			nvv++
			if int(u) >= nIface && int(v) >= nIface {
				nii++
			}
			continue
		}
		if c.L.isVar {
			lid(c.L.v)
		}
		if c.R.isVar {
			lid(c.R.v)
		}
	}
	nl := len(locals)

	// Variable-variable edges in local ids; the subset with both
	// endpoints internal feeds the condensation (merging across an
	// interface variable would bypass its termination of the search).
	eSlab := make([]int32, 2*nvv+2*nii)
	mSlab := make([]qual.Elem, nvv+nii)
	eFrom, eTo := eSlab[:0:nvv], eSlab[nvv:nvv:2*nvv]
	iFrom, iTo := eSlab[2*nvv:2*nvv:2*nvv+nii], eSlab[2*nvv+nii:2*nvv+nii:2*nvv+2*nii]
	eMask, iMask := mSlab[:0:nvv], mSlab[nvv:nvv:nvv+nii]
	for _, c := range cons {
		if !c.L.isVar || !c.R.isVar {
			continue
		}
		u, v := id[c.L.v], id[c.R.v]
		eFrom = append(eFrom, u)
		eTo = append(eTo, v)
		eMask = append(eMask, c.Mask)
		if int(u) >= nIface && int(v) >= nIface {
			iFrom = append(iFrom, u)
			iTo = append(iTo, v)
			iMask = append(iMask, c.Mask)
		}
	}
	comp, ncomp, _ := condense(nl, iFrom, iTo, iMask, full)
	g := buildCompGraph(comp, ncomp, eFrom, eTo, eMask)

	// Per-node state, again slab-allocated: compIface maps a condensed
	// node to the interface variable it holds (interface nodes are
	// singletons), or -1 for internal components; queue, touched and
	// emTouched are the per-pass worklists, reset via the touched lists
	// between interface variables.
	iSlab := make([]int32, 3*ncomp+nIface)
	compIface := iSlab[:ncomp:ncomp]
	queue := iSlab[ncomp : ncomp : 2*ncomp]
	touched := iSlab[2*ncomp : 2*ncomp : 3*ncomp]
	emTouched := iSlab[3*ncomp : 3*ncomp : 3*ncomp+nIface]
	for i := range compIface {
		compIface[i] = -1
	}
	for i := 0; i < nIface; i++ {
		compIface[comp[i]] = int32(i)
	}

	// Constant bounds aggregated per condensed node. For upper bounds
	// κ ⊑ c the per-component bound is binary — the component bit is
	// either kept (every bound carries it) or cleared — so the
	// aggregate is one AND per constraint; upCover marks components
	// with at least one bound. reach holds, per condensed node, the
	// bitset of lattice components on which the node is reachable from
	// (or backwards to) the current interface variable.
	aSlab := make([]qual.Elem, 4*ncomp+nIface)
	loAgg := aSlab[:ncomp:ncomp]
	upAgg := aSlab[ncomp : 2*ncomp : 2*ncomp]
	upCover := aSlab[2*ncomp : 3*ncomp : 3*ncomp]
	reach := aSlab[3*ncomp : 4*ncomp : 4*ncomp]
	em := aSlab[4*ncomp:]
	for i := range upAgg {
		upAgg[i] = top
	}
	for _, c := range cons {
		switch {
		case !c.L.isVar && c.R.isVar:
			loAgg[comp[id[c.R.v]]] |= c.L.c & c.Mask
		case c.L.isVar && !c.R.isVar:
			u := comp[id[c.L.v]]
			upAgg[u] &= c.R.c | ^c.Mask
			upCover[u] |= c.Mask
		}
	}

	inQ := make([]bool, ncomp)

	why := Reason{Msg: "restricted scheme constraint"}
	var out []Constraint

	for ix := 0; ix < nIface; ix++ {
		cx := comp[ix]

		// Forward pass: interface edges, and constant upper bounds on
		// the components where they actually constrain x. upperClear
		// collects the components b with a reachable bound lacking b;
		// the emitted bound for such a component is always top&^b.
		var upperClear qual.Elem
		reach[cx] = full
		touched = append(touched[:0], cx)
		queue = append(queue[:0], cx)
		inQ[cx] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			if cov := upCover[u] & b; cov != 0 {
				upperClear |= cov &^ upAgg[u]
			}
			for e := g.fOff[u]; e < g.fOff[u+1]; e++ {
				bits := b & g.fMask[e]
				if bits == 0 {
					continue
				}
				v := g.fTo[e]
				if iv := compIface[v]; iv >= 0 {
					if em[iv] == 0 && bits != 0 {
						emTouched = append(emTouched, iv)
					}
					em[iv] |= bits
					continue
				}
				if bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
				}
				reach[v] |= bits
				if !inQ[v] {
					queue = append(queue, v)
					inQ[v] = true
				}
			}
		}
		for _, iv := range emTouched {
			out = append(out, Constraint{L: V(locals[ix]), R: V(locals[iv]), Mask: em[iv], Why: why})
			em[iv] = 0
		}
		emTouched = emTouched[:0]
		for _, u := range touched {
			reach[u] = 0
		}

		// Backward pass: constant lower bounds flowing into x. Interface
		// sources terminate the walk (their flow is covered by the edge
		// kept from them).
		var lowerIn qual.Elem
		reach[cx] = full
		touched = append(touched[:0], cx)
		queue = append(queue[:0], cx)
		inQ[cx] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			lowerIn |= loAgg[u] & b
			for e := g.rOff[u]; e < g.rOff[u+1]; e++ {
				bits := b & g.rMask[e]
				if bits == 0 {
					continue
				}
				v := g.rTo[e]
				if compIface[v] >= 0 {
					continue
				}
				if bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
				}
				reach[v] |= bits
				if !inQ[v] {
					queue = append(queue, v)
					inQ[v] = true
				}
			}
		}
		for _, u := range touched {
			reach[u] = 0
		}

		if lowerIn != 0 {
			out = append(out, Constraint{L: C(lowerIn), R: V(locals[ix]), Mask: lowerIn, Why: why})
		}
		for bits := upperClear; bits != 0; bits &= bits - 1 {
			bit := bits & -bits
			out = append(out, Constraint{L: V(locals[ix]), R: C(top &^ bit), Mask: bit, Why: why})
		}
	}

	// Emission order above follows traversal order; scheme constraints
	// feed instantiation replay, so the projection is sorted into a
	// canonical deterministic order.
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// less orders constraints deterministically: variables before constants,
// then by variable index / constant bits, left term first, then mask.
func less(a, b Constraint) bool {
	if k := compareTerm(a.L, b.L); k != 0 {
		return k < 0
	}
	if k := compareTerm(a.R, b.R); k != 0 {
		return k < 0
	}
	return a.Mask < b.Mask
}

func compareTerm(a, b Term) int {
	switch {
	case a.isVar && !b.isVar:
		return -1
	case !a.isVar && b.isVar:
		return 1
	case a.isVar:
		return int(a.v) - int(b.v)
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}
