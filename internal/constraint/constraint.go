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
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// insts lists the instances of projections with witnesses, in
	// constraint order; empty outside polymorphic inference.
	insts []instance

	solved bool
	lower  []qual.Elem
	upper  []qual.Elem
}

// SolveStats reports the size of the last solved system.
type SolveStats struct {
	Vars        int
	Constraints int
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
// previous solution, and the next call solves the whole system again.
//
// Both solutions are masked worklist fixpoints over CSR adjacency (see
// graph.go). The least solution joins constant lower bounds forward along
// the edges. The greatest solution is the dual: the components that
// constant upper bounds clear flow backward, and each variable's upper
// value is top minus what reached it.
func (s *System) Solve() []*Unsat {
	n := s.n
	top := s.set.Top()
	sol := make([]qual.Elem, 2*n)
	lower, cleared := sol[:n:n], sol[n:]

	m := 0
	for i := range s.cons {
		if s.cons[i].L.isVar && s.cons[i].R.isVar {
			m++
		}
	}
	ends := make([]int32, 2*m)
	eFrom, eTo := ends[:0:m], ends[m:m]
	eMask := make([]qual.Elem, 0, m)
	for i := range s.cons {
		c := &s.cons[i]
		switch {
		case c.L.isVar && c.R.isVar:
			eFrom = append(eFrom, int32(c.L.v))
			eTo = append(eTo, int32(c.R.v))
			eMask = append(eMask, c.Mask)
		case c.R.isVar:
			lower[c.R.v] |= c.L.c & c.Mask
		case c.L.isVar:
			cleared[c.L.v] |= c.Mask &^ c.R.c & top
		}
	}
	inQ := make([]bool, n)
	queue := make([]int32, 0, n)
	propagate(newCSR(n, eFrom, eTo, eMask, nil), lower, inQ, queue)
	propagate(newCSR(n, eTo, eFrom, eMask, nil), cleared, inQ, queue)
	upper := cleared
	for v, x := range cleared {
		upper[v] = top &^ x
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
	var viol []int32
	for i := range s.cons {
		if c := &s.cons[i]; !c.R.isVar && !qual.LeqMask(s.valueLower(c.L), c.R.c, c.Mask) {
			viol = append(viol, int32(i))
		}
	}
	return s.buildUnsats(viol)
}

// buildUnsats converts violated constraint indices (ascending, in
// constraint order) into deduplicated Unsat reports with blame paths.
// Instances of projected constraints are reported along their witnesses:
// a path step expands into the original steps it summarizes, and a
// violated instance of a projected bound is reported as the original
// bound, with the path inside the callee that leads to it ending the
// flow.
func (s *System) buildUnsats(viol []int32) []*Unsat {
	var unsat []*Unsat
	var incoming *incomingCSR
	var reported map[string]bool // allocated on the first conflict
	for _, ci := range viol {
		c := &s.cons[ci]
		lv := s.valueLower(c.L)
		if qual.LeqMask(lv, c.R.c, c.Mask) {
			continue
		}
		bad := (lv &^ c.R.c) & c.Mask
		var path []Constraint
		if c.L.isVar {
			if incoming == nil {
				incoming = buildIncomingCSR(s.cons, s.n)
			}
			for _, k := range s.blame(c.L.v, bad, incoming) {
				path = s.appendSteps(path, int(k))
			}
		}
		con := *c
		if len(s.insts) > 0 {
			steps := s.appendSteps(nil, int(ci))
			con = steps[len(steps)-1]
			path = append(path, steps[:len(steps)-1]...)
			bad = (lv &^ con.R.c) & con.Mask
		}
		u := &Unsat{Con: con, Lower: lv & con.Mask, Bound: con.R.c | ^con.Mask, Path: path}
		origin := ""
		if len(path) > 0 {
			origin = path[0].Why.String()
		}
		key := fmt.Sprintf("%s\x00%s\x00%x", origin, con.Why.String(), uint64(bad))
		if reported == nil {
			reported = make(map[string]bool)
		}
		if reported[key] {
			continue
		}
		reported[key] = true
		unsat = append(unsat, u)
	}
	return unsat
}

// Stats reports the size of the last Solve. It panics if the system has
// not been solved since the last modification.
func (s *System) Stats() SolveStats {
	s.mustSolved()
	return SolveStats{Vars: s.n, Constraints: len(s.cons)}
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
// the extracted trace is byte-identical from run to run. The path is
// returned as constraint indices.
func (s *System) blame(v Var, bad qual.Elem, incoming *incomingCSR) []int32 {
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
	path := []int32{int32(origin)}
	for at := originVar; at != v; {
		ci, ok := prev[at]
		if !ok {
			break
		}
		path = append(path, int32(ci))
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
// variables; see (*System).Restrict and (*System).Project.
//
// The projection preserves, per lattice component, reachability through
// internal variables only: interface variables terminate the search, so
// paths through them are recovered by composing the kept edges. It runs
// one masked-reachability worklist per interface variable forward and one
// backward, each propagating per node the bitset of lattice components on
// which the node is reachable, all components at once. Constant bounds
// are pre-aggregated per variable, so testing them is a pair of mask
// operations.
//
// Each projected constraint carries the Reason of the first original
// constraint its witness crosses (see Projection): an edge or a lower
// bound the first hop of its path, an upper bound the original bound.
// Lower bounds reaching x from different original bounds stay separate
// constraints, so each keeps its own provenance.
//
// A direct self-loop x ⊑ x in the input says nothing and is skipped; a
// cycle x ⊑ i ⊑ x through an internal variable i still projects to x ⊑ x.
func Restrict(set *qual.Set, cons []Constraint, iface []Var) []Constraint {
	out, _, _ := restrict(set, cons, [][2]int{{0, len(cons)}}, iface, true)
	return out
}

// Projection is a constraint fragment projected onto interface variables
// (see Restrict) together with its provenance. The witness of Cons[i]
// lists, source first, the constraints of the System that Cons[i]
// summarizes: for an edge, one path through internal variables that
// carries its bits (the path of first discovery); for a bound, that path
// and the original constant bound at its far end. Witnesses index the
// System the fragment was projected from, so every instance of a
// projection shares them.
type Projection struct {
	Cons []Constraint
	// wit[span[2i]:span[2i+1]] is the witness of Cons[i]. Both are nil
	// in a Projection built by hand, whose constraints stand for
	// themselves.
	span, wit []int32
}

// instance records one instantiation of a projection with witnesses: its
// constraints occupy cons[start : start+len(p.Cons)]. Project leaves out
// the self-loops x ⊑ x, the only projected constraints AddMasked would
// drop (renaming never merges two distinct variables), so the k-th
// constraint of the instance is cons[start+k].
type instance struct {
	start int
	p     *Projection
}

// Project restricts the constraints in the half-open index ranges rgs to
// the interface variables (see Restrict) and records each projected
// constraint's witness. Self-loops x ⊑ x, which instantiation would drop
// anyway, are left out.
func (s *System) Project(iface []Var, rgs ...[2]int) *Projection {
	out, span, wit := restrict(s.set, s.cons, rgs, iface, false)
	return &Projection{Cons: out, span: span, wit: wit}
}

// Instantiate adds p's constraints with variables renamed through rename
// (variables absent from rename are kept as-is): the instantiation step
// of qualifier polymorphism. Instances of a projection with witnesses are
// recorded, so a conflict that runs through one is reported along the
// original constraints (see buildUnsats); nothing is copied but the
// constraints themselves.
func (s *System) Instantiate(p *Projection, rename map[Var]Var) {
	if p.span != nil {
		s.insts = append(s.insts, instance{start: len(s.cons), p: p})
	}
	s.AddConstraints(p.Cons, rename)
}

// witness returns the witness of constraint ci when ci is an instance of
// a projected constraint, else nil.
func (s *System) witness(ci int) []int32 {
	i := sort.Search(len(s.insts), func(i int) bool { return s.insts[i].start > ci }) - 1
	if i < 0 {
		return nil
	}
	in := s.insts[i]
	k := ci - in.start
	if k >= len(in.p.Cons) {
		return nil
	}
	return in.p.wit[in.p.span[2*k]:in.p.span[2*k+1]]
}

// appendSteps appends constraint ci to dst or, when ci is an instance of
// a projected constraint, the constraints of its witness, each expanded
// the same way (a witness may cross instances of a callee's scheme). The
// witness runs between the scheme's generic variables; its two ends are
// renamed to the instance's, so only the callee's internal steps print
// generic variables.
func (s *System) appendSteps(dst []Constraint, ci int) []Constraint {
	c := s.cons[ci]
	w := s.witness(ci)
	if w == nil {
		return append(dst, c)
	}
	first := len(dst)
	for _, k := range w {
		dst = s.appendSteps(dst, int(k))
	}
	if c.L.isVar {
		dst[first].L = c.L
	}
	if c.R.isVar {
		dst[len(dst)-1].R = c.R
	}
	return dst
}

// restrict is Restrict over the constraints of cons in the half-open
// index ranges rgs, also returning witnesses as indices into cons (see
// Projection); loops keeps the x ⊑ x edges of cycles through internal
// variables.
func restrict(set *qual.Set, cons []Constraint, rgs [][2]int, iface []Var, loops bool) (out []Constraint, span, wit []int32) {
	full := set.FullMask()
	top := set.Top()

	// Local dense ids: interface variables first (deduplicated), then
	// every other variable in first-occurrence order, so a node is an
	// interface variable iff its id is below nIface.
	n := 0
	for _, rg := range rgs {
		n += rg[1] - rg[0]
	}
	id := make(map[Var]int32, 2*len(iface))
	locals := make([]Var, 0, len(iface)+2*n)
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
	nIface := int32(len(locals))
	var eFrom, eTo, eCon []int32
	var eMask []qual.Elem
	for _, rg := range rgs {
		for i := rg[0]; i < rg[1]; i++ {
			switch c := &cons[i]; {
			case c.L.isVar && c.R.isVar:
				u, v := lid(c.L.v), lid(c.R.v)
				if u != v {
					eFrom = append(eFrom, u)
					eTo = append(eTo, v)
					eMask = append(eMask, c.Mask)
					eCon = append(eCon, int32(i))
				}
			case c.L.isVar:
				lid(c.L.v)
			case c.R.isVar:
				lid(c.R.v)
			}
		}
	}
	nl := len(locals)
	fwd := newCSR(nl, eFrom, eTo, eMask, eCon)
	rev := newCSR(nl, eTo, eFrom, eMask, eCon)

	// Constant bounds aggregated per variable. For upper bounds κ ⊑ c
	// the per-component bound is binary — the component bit is either
	// kept (every bound carries it) or cleared — so the aggregate is one
	// AND per constraint; upCover marks components with at least one
	// bound. The bounds themselves are listed per variable in constraint
	// order, for witnesses: loHead/upHead start a list of entries, and
	// entry bounds[e] names a constraint and links to the next entry.
	// reach holds, per node, the bitset of lattice components on which
	// the node is reachable from (or backwards to) the current interface
	// variable; em collects the components on which each interface
	// variable is reached.
	loAgg := make([]qual.Elem, nl)
	upAgg := make([]qual.Elem, nl)
	upCover := make([]qual.Elem, nl)
	reach := make([]qual.Elem, nl)
	em := make([]qual.Elem, nIface)
	heads := make([]int32, 2*nl)
	loHead, upHead := heads[:nl], heads[nl:]
	var bounds []struct{ con, next int32 }
	for i := range upAgg {
		upAgg[i] = top
	}
	for i := range heads {
		heads[i] = -1
	}
	for r := len(rgs) - 1; r >= 0; r-- {
		for i := rgs[r][1] - 1; i >= rgs[r][0]; i-- {
			var head *int32
			switch c := &cons[i]; {
			case !c.L.isVar && c.R.isVar:
				u := id[c.R.v]
				loAgg[u] |= c.L.c & c.Mask
				head = &loHead[u]
			case c.L.isVar && !c.R.isVar:
				u := id[c.L.v]
				upAgg[u] &= c.R.c | ^c.Mask
				upCover[u] |= c.Mask
				head = &upHead[u]
			default:
				continue
			}
			bounds = append(bounds, struct{ con, next int32 }{int32(i), *head})
			*head = int32(len(bounds) - 1)
		}
	}
	// par[u] is the constraint by which the current pass first reached
	// u, and from[u] the node at its other end, so following them from a
	// reached node walks back to the interface variable of the pass.
	// emPar/emFrom record the same for the first arrival at an interface
	// variable.
	links := make([]int32, 2*nl+2*int(nIface))
	par, from := links[:nl], links[nl:2*nl]
	emPar, emFrom := links[2*nl:2*nl+int(nIface)], links[2*nl+int(nIface):]
	inQ := make([]bool, nl)
	var queue, touched, emTouched []int32

	emit := func(c Constraint, w0 int) {
		out = append(out, c)
		span = append(span, int32(w0), int32(len(wit)))
	}
	// pathFrom appends the links from u back to x: the backward pass's
	// path from u to x, source first.
	pathFrom := func(u, x int32) {
		for ; u != x; u = from[u] {
			wit = append(wit, par[u])
		}
	}
	// pathTo appends the forward pass's path from x to u, source first.
	pathTo := func(x, u int32) {
		w0 := len(wit)
		pathFrom(u, x)
		slices.Reverse(wit[w0:])
	}

	for x := int32(0); x < nIface; x++ {
		// Forward pass: interface edges, and constant upper bounds on
		// the components where they actually constrain x. upperClear
		// collects the components b with a reachable bound lacking b;
		// the emitted bound for such a component is always top&^b.
		var upperClear qual.Elem
		reach[x] = full
		touched = append(touched[:0], x)
		queue = append(queue[:0], x)
		inQ[x] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			if clear := upCover[u] & b &^ upAgg[u] &^ upperClear; clear != 0 {
				upperClear |= clear
				for bits := clear; bits != 0; bits &= bits - 1 {
					bit := bits & -bits
					// The first bound at u that clears bit.
					var k int32
					for e := upHead[u]; ; e = bounds[e].next {
						if k = bounds[e].con; cons[k].Mask&^cons[k].R.c&bit != 0 {
							break
						}
					}
					w0 := len(wit)
					pathTo(x, u)
					wit = append(wit, k)
					emit(Constraint{L: V(locals[x]), R: C(top &^ bit), Mask: bit, Why: cons[k].Why}, w0)
				}
			}
			for e := fwd.off[u]; e < fwd.off[u+1]; e++ {
				bits := b & fwd.mask[e]
				if bits == 0 {
					continue
				}
				v := fwd.to[e]
				if v < nIface {
					if em[v] == 0 {
						emTouched = append(emTouched, v)
						emPar[v], emFrom[v] = fwd.con[e], u
					}
					em[v] |= bits
					continue
				}
				if bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
					par[v], from[v] = fwd.con[e], u
				}
				reach[v] |= bits
				if !inQ[v] {
					queue = append(queue, v)
					inQ[v] = true
				}
			}
		}
		for _, v := range emTouched {
			if v != x || loops {
				w0 := len(wit)
				pathTo(x, emFrom[v])
				wit = append(wit, emPar[v])
				emit(Constraint{L: V(locals[x]), R: V(locals[v]), Mask: em[v], Why: cons[wit[w0]].Why}, w0)
			}
			em[v] = 0
		}
		emTouched = emTouched[:0]
		for _, u := range touched {
			reach[u] = 0
		}

		// Backward pass: constant lower bounds flowing into x, one
		// projected bound per original bound that brings new components.
		// Interface sources terminate the walk (their flow is covered by
		// the edge kept from them).
		var lowerIn qual.Elem
		reach[x] = full
		touched = append(touched[:0], x)
		queue = append(queue[:0], x)
		inQ[x] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			if in := loAgg[u] & b &^ lowerIn; in != 0 {
				lowerIn |= in
				for e := loHead[u]; in != 0; e = bounds[e].next {
					k := bounds[e].con
					if bits := cons[k].L.c & cons[k].Mask & in; bits != 0 {
						in &^= bits
						w0 := len(wit)
						wit = append(wit, k)
						pathFrom(u, x)
						emit(Constraint{L: C(bits), R: V(locals[x]), Mask: bits, Why: cons[k].Why}, w0)
					}
				}
			}
			for e := rev.off[u]; e < rev.off[u+1]; e++ {
				bits := b & rev.mask[e]
				v := rev.to[e]
				if v < nIface || bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
					par[v], from[v] = rev.con[e], u
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
	}

	// Emission order above follows traversal order; scheme constraints
	// feed instantiation, so the projection is sorted into a canonical
	// deterministic order, witness spans alongside.
	sort.Sort(bySpan{out, span})
	return out, span, wit
}

// bySpan sorts projected constraints with their witness spans.
type bySpan struct {
	cons []Constraint
	span []int32
}

func (p bySpan) Len() int           { return len(p.cons) }
func (p bySpan) Less(i, j int) bool { return less(p.cons[i], p.cons[j]) }
func (p bySpan) Swap(i, j int) {
	p.cons[i], p.cons[j] = p.cons[j], p.cons[i]
	p.span[2*i], p.span[2*j] = p.span[2*j], p.span[2*i]
	p.span[2*i+1], p.span[2*j+1] = p.span[2*j+1], p.span[2*i+1]
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
