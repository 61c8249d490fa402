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
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/qual"
)

// Var names a qualifier variable (κ in the paper).
type Var int

// Term is one side of an atomic constraint: either a qualifier variable or
// a constant lattice element. It holds no pointers and takes 16 bytes: the
// constant, the variable's index and a tag.
type Term struct {
	c     qual.Elem
	v     int32
	isVar bool
}

// V wraps a variable as a Term.
func V(v Var) Term { return Term{isVar: true, v: int32(v)} }

// C wraps a constant lattice element as a Term.
func C(e qual.Elem) Term { return Term{c: e} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.isVar }

// Var returns the variable of a variable term; it panics on constants.
func (t Term) Var() Var {
	if !t.isVar {
		panic("constraint: Var called on constant term")
	}
	return Var(t.v)
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
		return fmt.Sprintf("κ%d", t.v)
	}
	return fmt.Sprintf("L(%#x)", uint64(t.c))
}

// Format renders the term using the qualifier set for constants.
func (t Term) Format(set *qual.Set) string {
	if t.isVar {
		return fmt.Sprintf("κ%d", t.v)
	}
	return set.Describe(t.c)
}

// FormatMask renders the term with constants restricted to the lattice
// components in mask, as a masked constraint sees them.
func (t Term) FormatMask(set *qual.Set, mask qual.Elem) string {
	if t.isVar {
		return fmt.Sprintf("κ%d", t.v)
	}
	return set.DescribeMask(t.c, mask)
}

// Pos is the source position of a constraint's provenance. The zero Pos
// means no position. Positions are kept unformatted: String renders one
// only when a conflict, trace or golden shows it.
type Pos struct {
	File      string
	Line, Col int32
}

// String renders the position as file:line:col, leaving out the file when
// it is empty and the column when it is zero, the format of the C and
// lambda front ends' positions and of go/token.Position. A position
// without a line renders as its file alone, so the zero Pos renders as "".
func (p Pos) String() string {
	if p.Line <= 0 {
		return p.File
	}
	b := make([]byte, 0, len(p.File)+24)
	if p.File != "" {
		b = append(append(b, p.File...), ':')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	if p.Col != 0 {
		b = strconv.AppendInt(append(b, ':'), int64(p.Col), 10)
	}
	return string(b)
}

// TokenPos converts a go/token position. An invalid position without a
// file becomes "-", as token.Position renders it.
func TokenPos(p token.Position) Pos {
	if !p.IsValid() && p.Filename == "" {
		return Pos{File: "-"}
	}
	return Pos{File: p.Filename, Line: int32(p.Line), Col: int32(p.Column)}
}

// Reason records where and why a constraint was generated, for diagnostics.
type Reason struct {
	// Pos is the source position; the zero Pos means none.
	Pos Pos
	// Msg describes the language construct that generated the constraint,
	// e.g. `assignment to "x"` or `assertion e|¬const`.
	Msg string
}

func (r Reason) String() string {
	pos := r.Pos.String()
	switch {
	case pos == "" && r.Msg == "":
		return "(no provenance)"
	case pos == "":
		return r.Msg
	case r.Msg == "":
		return pos
	default:
		return pos + ": " + r.Msg
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
	if u.Con.Why != (Reason{}) {
		fmt.Fprintf(&b, " at %v", u.Con.Why)
	}
	for _, c := range u.Path {
		fmt.Fprintf(&b, "\n\tflow: %s ⊑ %s (%v)", c.L.FormatMask(set, c.Mask), c.R.FormatMask(set, c.Mask), c.Why)
	}
	return b.String()
}

// record is the stored form of a Constraint: 56 bytes and no pointers, so
// the store's chunks sit in spans the garbage collector does not scan.
// file and msg index the System's intern tables; line and col complete
// the position.
type record struct {
	l, r      Term
	mask      qual.Elem
	file, msg uint32
	line, col int32
}

// chunkSize is the number of records per store chunk (56 KiB). Every chunk
// but the first is allocated at full size and never copied; the first
// grows by doubling, so small systems stay small.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// interner assigns dense ids to strings; id 0 is the empty string.
type interner struct {
	strs []string
	ids  map[string]uint32
	last uint32 // the previous lookup's id, checked first
}

func newInterner() interner { return interner{strs: []string{""}} }

func (t *interner) id(s string) uint32 {
	if t.strs[t.last] == s {
		return t.last
	}
	if s == "" {
		return 0
	}
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]uint32)
		}
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = id
	}
	t.last = id
	return id
}

// System accumulates atomic constraints over a qualifier set and solves
// them. The zero value is not usable; call NewSystem.
type System struct {
	set *qual.Set
	n   int
	// chunks holds the constraints in insertion order, chunkSize records
	// per chunk; ncons counts them.
	chunks      [][]record
	ncons       int
	files, msgs interner
	// insts lists the instances of projections with witnesses, in
	// constraint order; empty outside polymorphic inference.
	insts []instance
	// ws is the scratch of Generalize and the projections.
	ws workspace

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
	return &System{set: set, files: newInterner(), msgs: newInterner()}
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
func (s *System) NumConstraints() int { return s.ncons }

// rec returns the stored record of constraint i.
func (s *System) rec(i int) *record {
	return &s.chunks[i>>chunkBits][i&(chunkSize-1)]
}

// why expands the provenance of a stored record.
func (s *System) why(r *record) Reason {
	return Reason{Pos: Pos{File: s.files.strs[r.file], Line: r.line, Col: r.col}, Msg: s.msgs.strs[r.msg]}
}

// At returns constraint i, 0 ≤ i < NumConstraints, in insertion order.
func (s *System) At(i int) Constraint {
	r := s.rec(i)
	return Constraint{L: r.l, R: r.r, Mask: r.mask, Why: s.why(r)}
}

// Slice returns copies of the constraints lo..hi-1.
func (s *System) Slice(lo, hi int) []Constraint {
	out := make([]Constraint, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, s.At(i))
	}
	return out
}

// push appends a record to the store.
func (s *System) push(r record) {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == chunkSize {
		size := chunkSize
		if k < 0 {
			size = 16
		}
		s.chunks = append(s.chunks, make([]record, 0, size))
		k++
	}
	if c := s.chunks[k]; len(c) == cap(c) {
		grown := make([]record, len(c), min(2*cap(c), chunkSize))
		copy(grown, c)
		s.chunks[k] = grown
	}
	s.chunks[k] = append(s.chunks[k], r)
	s.ncons++
}

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
	s.push(record{
		l: l, r: r, mask: mask,
		file: s.files.id(why.Pos.File), msg: s.msgs.id(why.Msg),
		line: why.Pos.Line, col: why.Pos.Col,
	})
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
			if nv, ok := rename[Var(l.v)]; ok {
				l = V(nv)
			}
		}
		if r.isVar {
			if nv, ok := rename[Var(r.v)]; ok {
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
	for _, ch := range s.chunks {
		for i := range ch {
			if ch[i].l.isVar && ch[i].r.isVar {
				m++
			}
		}
	}
	ends := make([]int32, 2*m)
	eFrom, eTo := ends[:0:m], ends[m:m]
	eMask := make([]qual.Elem, 0, m)
	for _, ch := range s.chunks {
		for i := range ch {
			switch c := &ch[i]; {
			case c.l.isVar && c.r.isVar:
				eFrom = append(eFrom, c.l.v)
				eTo = append(eTo, c.r.v)
				eMask = append(eMask, c.mask)
			case c.r.isVar:
				lower[c.r.v] |= c.l.c & c.mask
			case c.l.isVar:
				cleared[c.l.v] |= c.mask &^ c.r.c & top
			}
		}
	}
	inQ := make([]bool, n)
	queue := make([]int32, 0, n)
	g := newCSR(csr{}, n, eFrom, eTo, eMask, nil)
	propagate(g, lower, inQ, queue)
	propagate(newCSR(g, n, eTo, eFrom, eMask, nil), cleared, inQ, queue)
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
	for k, ch := range s.chunks {
		for i := range ch {
			if c := &ch[i]; !c.r.isVar && !qual.LeqMask(s.valueLower(c.l), c.r.c, c.mask) {
				viol = append(viol, int32(k<<chunkBits+i))
			}
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
		con := s.At(int(ci))
		lv := s.valueLower(con.L)
		if qual.LeqMask(lv, con.R.c, con.Mask) {
			continue
		}
		bad := (lv &^ con.R.c) & con.Mask
		var path []Constraint
		if con.L.isVar {
			if incoming == nil {
				incoming = s.buildIncomingCSR()
			}
			for _, k := range s.blame(Var(con.L.v), bad, incoming) {
				path = s.appendSteps(path, int(k))
			}
		}
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
				c := s.rec(ci)
				bits := nd.bits & c.mask
				if bits == 0 {
					continue
				}
				if !c.l.isVar {
					if c.l.c&bits != 0 {
						origin = ci
						originVar = nd.v
						break
					}
					continue
				}
				src := Var(c.l.v)
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
		at = Var(s.rec(ci).r.v)
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
	out, _, _ := s.restrict([][2]int{{0, s.ncons}}, iface, true)
	return out
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
//
// The slice's variables are renumbered densely for the projection and
// back after it: the workspace indexes its marks by variable, and a
// scheme's constraints name variables from all over the System they came
// from. The renumbering keeps their order, so it keeps the sort order of
// the result.
func Restrict(set *qual.Set, cons []Constraint, iface []Var) []Constraint {
	vars := slices.Clone(iface)
	for _, c := range cons {
		for _, t := range [2]Term{c.L, c.R} {
			if t.isVar {
				vars = append(vars, Var(t.v))
			}
		}
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	dense := func(t Term) Term {
		if t.isVar {
			i, _ := slices.BinarySearch(vars, Var(t.v))
			t.v = int32(i)
		}
		return t
	}
	s := NewSystem(set)
	for _, c := range cons {
		s.AddMasked(dense(c.L), dense(c.R), c.Mask, c.Why)
	}
	ids := make([]Var, len(iface))
	for i, v := range iface {
		ids[i] = Var(dense(V(v)).v)
	}
	out := s.Restrict(ids)
	for i := range out {
		for _, t := range [2]*Term{&out[i].L, &out[i].R} {
			if t.isVar {
				t.v = int32(vars[t.v])
			}
		}
	}
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
// constraints are start..start+len(p.Cons)-1. Project leaves out the
// self-loops x ⊑ x, the only projected constraints AddMasked would drop
// (renaming never merges two distinct variables), so the k-th constraint
// of the instance is start+k.
type instance struct {
	start int
	p     *Projection
}

// Project restricts the constraints in the half-open index ranges rgs to
// the interface variables (see Restrict) and records each projected
// constraint's witness. Self-loops x ⊑ x, which instantiation would drop
// anyway, are left out.
func (s *System) Project(iface []Var, rgs ...[2]int) *Projection {
	out, span, wit := s.restrict(rgs, iface, false)
	return &Projection{Cons: out, span: span, wit: wit}
}

// Generalize turns the constraint fragment in the half-open index ranges
// rgs into a scheme ∀qvars. body \ p (§3.2), projected onto its interface
// (§6): body's variables, deduplicated, followed by every non-local
// variable the fragment mentions, in constraint order. The quantified
// variables are the local interface variables, sorted; local variables
// outside the interface are projected away.
func (s *System) Generalize(body []Var, local func(Var) bool, rgs ...[2]int) (qvars []Var, p *Projection) {
	// The workspace's marks deduplicate the interface; they are cleared
	// before Project, which numbers the interface afresh.
	w := &s.ws
	for _, v := range body {
		w.lid(v)
	}
	for _, rg := range rgs {
		for i := rg[0]; i < rg[1]; i++ {
			c := s.rec(i)
			if c.l.isVar && !local(Var(c.l.v)) {
				w.lid(Var(c.l.v))
			}
			if c.r.isVar && !local(Var(c.r.v)) {
				w.lid(Var(c.r.v))
			}
		}
	}
	iface := append(w.iface[:0], w.locals...)
	w.iface = iface
	w.unmark()
	n := 0
	for _, v := range iface {
		if local(v) {
			n++
		}
	}
	if n > 0 {
		qvars = make([]Var, 0, n)
		for _, v := range iface {
			if local(v) {
				qvars = append(qvars, v)
			}
		}
		slices.Sort(qvars)
	}
	return qvars, s.Project(iface, rgs...)
}

// Instantiate adds p's constraints with variables renamed through rename
// (variables absent from rename are kept as-is): the instantiation step
// of qualifier polymorphism. Instances of a projection with witnesses are
// recorded, so a conflict that runs through one is reported along the
// original constraints (see buildUnsats); nothing is copied but the
// constraints themselves.
func (s *System) Instantiate(p *Projection, rename map[Var]Var) {
	if p.span != nil {
		s.insts = append(s.insts, instance{start: s.ncons, p: p})
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
	c := s.At(ci)
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

// restrict is Restrict over the constraints in the half-open index ranges
// rgs, also returning witnesses as constraint indices (see Projection);
// loops keeps the x ⊑ x edges of cycles through internal variables. Its
// scratch is the System's workspace; only the returned slices are new.
func (s *System) restrict(rgs [][2]int, iface []Var, loops bool) (out []Constraint, span, wit []int32) {
	full := s.set.FullMask()
	top := s.set.Top()
	w := &s.ws

	// Local dense ids: interface variables first (deduplicated), then
	// every other variable in first-occurrence order, so a node is an
	// interface variable iff its id is below nIface.
	for _, v := range iface {
		w.lid(v)
	}
	nIface := int32(len(w.locals))
	eFrom, eTo, eCon, eMask := w.eFrom[:0], w.eTo[:0], w.eCon[:0], w.eMask[:0]
	for _, rg := range rgs {
		for i := rg[0]; i < rg[1]; i++ {
			switch c := s.rec(i); {
			case c.l.isVar && c.r.isVar:
				u, v := w.lid(Var(c.l.v)), w.lid(Var(c.r.v))
				if u != v {
					eFrom = append(eFrom, u)
					eTo = append(eTo, v)
					eMask = append(eMask, c.mask)
					eCon = append(eCon, int32(i))
				}
			case c.l.isVar:
				w.lid(Var(c.l.v))
			case c.r.isVar:
				w.lid(Var(c.r.v))
			}
		}
	}
	w.eFrom, w.eTo, w.eCon, w.eMask = eFrom, eTo, eCon, eMask
	locals := w.locals
	nl := len(locals)
	w.fwd = newCSR(w.fwd, nl, eFrom, eTo, eMask, eCon)
	w.rev = newCSR(w.rev, nl, eTo, eFrom, eMask, eCon)
	fwd, rev := w.fwd, w.rev

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
	elems := resize(&w.elems, 4*nl+int(nIface))
	loAgg, upAgg, upCover, reach, em := elems[:nl], elems[nl:2*nl], elems[2*nl:3*nl], elems[3*nl:4*nl], elems[4*nl:]
	clear(elems)
	for i := range upAgg {
		upAgg[i] = top
	}
	heads := resize(&w.heads, 2*nl)
	loHead, upHead := heads[:nl], heads[nl:]
	for i := range heads {
		heads[i] = -1
	}
	bounds := w.bounds[:0]
	for r := len(rgs) - 1; r >= 0; r-- {
		for i := rgs[r][1] - 1; i >= rgs[r][0]; i-- {
			var head *int32
			switch c := s.rec(i); {
			case !c.l.isVar && c.r.isVar:
				u := w.marked(Var(c.r.v))
				loAgg[u] |= c.l.c & c.mask
				head = &loHead[u]
			case c.l.isVar && !c.r.isVar:
				u := w.marked(Var(c.l.v))
				upAgg[u] &= c.r.c | ^c.mask
				upCover[u] |= c.mask
				head = &upHead[u]
			default:
				continue
			}
			bounds = append(bounds, bound{int32(i), *head})
			*head = int32(len(bounds) - 1)
		}
	}
	w.bounds = bounds
	// The local ids are all assigned; the marks go, so the workspace
	// is clean for the next call whatever happens below.
	w.unmark()
	// par[u] is the constraint by which the current pass first reached
	// u, and from[u] the node at its other end, so following them from a
	// reached node walks back to the interface variable of the pass.
	// emPar/emFrom record the same for the first arrival at an interface
	// variable.
	links := resize(&w.links, 2*nl+2*int(nIface))
	par, from := links[:nl], links[nl:2*nl]
	emPar, emFrom := links[2*nl:2*nl+int(nIface)], links[2*nl+int(nIface):]
	inQ := resize(&w.inQ, nl)
	clear(inQ)
	queue, touched, emTouched := w.queue[:0], w.touched[:0], w.emTouched[:0]
	out, span, wit = w.out[:0], w.span[:0], w.wit[:0]

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
						k = bounds[e].con
						if c := s.rec(int(k)); c.mask&^c.r.c&bit != 0 {
							break
						}
					}
					w0 := len(wit)
					pathTo(x, u)
					wit = append(wit, k)
					emit(Constraint{L: V(locals[x]), R: C(top &^ bit), Mask: bit, Why: s.why(s.rec(int(k)))}, w0)
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
				emit(Constraint{L: V(locals[x]), R: V(locals[v]), Mask: em[v], Why: s.why(s.rec(int(wit[w0])))}, w0)
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
					c := s.rec(int(k))
					if bits := c.l.c & c.mask & in; bits != 0 {
						in &^= bits
						w0 := len(wit)
						wit = append(wit, k)
						pathFrom(u, x)
						emit(Constraint{L: C(bits), R: V(locals[x]), Mask: bits, Why: s.why(c)}, w0)
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
	w.queue, w.touched, w.emTouched = queue, touched, emTouched
	w.out, w.span, w.wit = out, span, wit

	// Emission order above follows traversal order; scheme constraints
	// feed instantiation, so the projection is sorted into a canonical
	// deterministic order, witness spans alongside. The sorted result is
	// copied out of the workspace at its exact size: the Projection
	// outlives this call, the workspace's buffers do not.
	w.sort = bySpan{out, span}
	sort.Sort(&w.sort)
	if len(out) == 0 {
		return nil, nil, nil
	}
	cons := make([]Constraint, len(out))
	copy(cons, out)
	ints := make([]int32, len(span)+len(wit))
	copy(ints, span)
	copy(ints[len(span):], wit)
	return cons, ints[:len(span):len(span)], ints[len(span):]
}

// workspace is the scratch of restrict and Generalize. A System owns one,
// and every projection of its fragments reuses it, so a polymorphic run
// allocates projection scratch a few times, grown to its largest
// component, instead of once per component. Nothing a call returns points
// into it.
//
// id is indexed by variable, in idPages made on first use: a
// polymorphic run's projections see variables up to the latest one, so
// a single array would be copied at every doubling as the run
// allocates variables, and a page is never copied. A variable can
// exceed NumVars: Restrict projects constraints over variables its
// fresh System never allocated. Between calls every entry of id is
// zero. A call does not clear id whole, which would cost O(NumVars) per
// component: it zeroes the entries it set, listed in locals. Every
// other array is indexed by local id, and sized and cleared per call.
type workspace struct {
	// id maps a variable to its local id + 1, and to 0 when the current
	// call has not seen it; locals maps the local ids back.
	id     []*idPage
	locals []Var
	// iface is Generalize's interface, handed to restrict.
	iface []Var

	eFrom, eTo, eCon []int32
	eMask            []qual.Elem
	fwd, rev         csr
	// elems backs loAgg, upAgg, upCover, reach and em; heads backs
	// loHead and upHead; links backs par, from, emPar and emFrom.
	elems                     []qual.Elem
	heads, links              []int32
	inQ                       []bool
	bounds                    []bound
	queue, touched, emTouched []int32
	// out, span and wit collect the projection, which is sorted in
	// place and copied out at its exact size. sort is their sorter,
	// kept here so that passing it to sort.Sort allocates nothing.
	out       []Constraint
	span, wit []int32
	sort      bySpan
}

// bound is one entry of a variable's list of constant bounds: the
// constraint, and the next entry or -1.
type bound struct{ con, next int32 }

// idPageBits sets the length of an id page, 4,096 entries (16 KB).
const idPageBits = 12

type idPage [1 << idPageBits]int32

// slot returns v's entry of id, making its page on first use.
func (w *workspace) slot(v Var) *int32 {
	pg := int(v >> idPageBits)
	if pg >= len(w.id) {
		w.id = append(w.id, make([]*idPage, pg+1-len(w.id))...)
	}
	p := w.id[pg]
	if p == nil {
		p = new(idPage)
		w.id[pg] = p
	}
	return &p[v&(1<<idPageBits-1)]
}

// lid returns v's local id, giving it the next one on first sight.
func (w *workspace) lid(v Var) int32 {
	i := w.slot(v)
	if *i != 0 {
		return *i - 1
	}
	w.locals = append(w.locals, v)
	*i = int32(len(w.locals))
	return *i - 1
}

// marked returns the local id of a variable the current call has seen.
func (w *workspace) marked(v Var) int32 {
	return w.id[v>>idPageBits][v&(1<<idPageBits-1)] - 1
}

// unmark clears the local ids of the current call.
func (w *workspace) unmark() {
	for _, v := range w.locals {
		w.id[v>>idPageBits][v&(1<<idPageBits-1)] = 0
	}
	w.locals = w.locals[:0]
}

// resize returns *buf at length n, growing its array (at least doubling
// it) when it is too small. The contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
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
