// Package qual implements type qualifiers and the qualifier lattice of
// Foster, Fähndrich and Aiken, "A Theory of Type Qualifiers" (PLDI 1999),
// Section 2.
//
// A qualifier q is positive if τ ≤ q τ for every standard type τ (e.g.
// const), and negative if q τ ≤ τ (e.g. nonzero). Each positive qualifier
// defines the two-point lattice ¬q ⊑ q and each negative qualifier the
// two-point lattice q ⊑ ¬q. The qualifier lattice L is the product of the
// per-qualifier lattices (Definition 2).
//
// Internally every lattice element is normalized to a bit vector in which
// bit i set means "the i-th component is at its top": for a positive
// qualifier the top is "qualifier present", for a negative qualifier it is
// "qualifier absent". Under this normalization the partial order is bitwise
// subset, join is OR and meet is AND, so all lattice operations are O(1).
package qual

import (
	"fmt"
	"sort"
	"strings"
)

// Sign says on which side of the subtype relation a qualifier sits
// (Definition 1 of the paper).
type Sign int

const (
	// Positive qualifiers satisfy τ ≤ q τ; values flow from unqualified
	// to qualified (const, dynamic, tainted).
	Positive Sign = iota
	// Negative qualifiers satisfy q τ ≤ τ; values flow from qualified to
	// unqualified (nonzero, untainted, sorted).
	Negative
)

func (s Sign) String() string {
	switch s {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return fmt.Sprintf("Sign(%d)", int(s))
	}
}

// Qualifier describes one user-supplied type qualifier.
type Qualifier struct {
	// Name is the source-level spelling, e.g. "const".
	Name string
	// Sign determines the orientation of the two-point lattice.
	Sign Sign
	// NegName optionally names the absent state for diagnostics: the
	// negative qualifier "untainted" reads better rendered as "tainted"
	// when absent than as "¬untainted". Empty means render "¬Name".
	NegName string
}

// MaxQualifiers is the maximum number of qualifiers in one Set; elements
// are packed into a 64-bit word.
const MaxQualifiers = 64

// Set is an immutable collection of qualifiers defining the product
// lattice L. The zero Set is the empty lattice (a single point).
type Set struct {
	quals []Qualifier
	index map[string]int
}

// NewSet builds a qualifier set. It fails if a name repeats, a name is
// empty, or more than MaxQualifiers qualifiers are supplied.
func NewSet(quals ...Qualifier) (*Set, error) {
	if len(quals) > MaxQualifiers {
		return nil, fmt.Errorf("qual: %d qualifiers exceeds maximum %d", len(quals), MaxQualifiers)
	}
	s := &Set{
		quals: append([]Qualifier(nil), quals...),
		index: make(map[string]int, len(quals)),
	}
	for i, q := range quals {
		if q.Name == "" {
			return nil, fmt.Errorf("qual: qualifier %d has empty name", i)
		}
		if q.Sign != Positive && q.Sign != Negative {
			return nil, fmt.Errorf("qual: qualifier %q has invalid sign %d", q.Name, q.Sign)
		}
		if _, dup := s.index[q.Name]; dup {
			return nil, fmt.Errorf("qual: duplicate qualifier %q", q.Name)
		}
		s.index[q.Name] = i
	}
	return s, nil
}

// MustSet is NewSet but panics on error; intended for tests and
// package-level variables with literal arguments.
func MustSet(quals ...Qualifier) *Set {
	s, err := NewSet(quals...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len reports the number of qualifiers in the set.
func (s *Set) Len() int { return len(s.quals) }

// Qualifiers returns a copy of the qualifier definitions in order.
func (s *Set) Qualifiers() []Qualifier {
	return append([]Qualifier(nil), s.quals...)
}

// Lookup returns the index of the named qualifier and whether it exists.
func (s *Set) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Qualifier returns the definition at index i.
func (s *Set) Qualifier(i int) Qualifier { return s.quals[i] }

// Elem is one element of the qualifier lattice L, i.e. a choice of
// present/absent for every qualifier in the Set. Elem values are only
// meaningful relative to the Set that produced them.
type Elem uint64

// Bottom returns ⊥, the least lattice element: all positive qualifiers
// absent and all negative qualifiers present.
func (s *Set) Bottom() Elem { return 0 }

// Top returns ⊤, the greatest lattice element: all positive qualifiers
// present and all negative qualifiers absent.
func (s *Set) Top() Elem {
	if len(s.quals) == 64 {
		return Elem(^uint64(0))
	}
	return Elem(uint64(1)<<uint(len(s.quals)) - 1)
}

// Elem builds the lattice element in which exactly the named qualifiers
// are present. It fails on unknown names.
func (s *Set) Elem(present ...string) (Elem, error) {
	var e Elem
	for _, name := range present {
		i, ok := s.index[name]
		if !ok {
			return 0, fmt.Errorf("qual: unknown qualifier %q", name)
		}
		if s.quals[i].Sign == Positive {
			e |= 1 << uint(i)
		}
	}
	// Negative qualifiers not listed are absent, which is their top.
	for i, q := range s.quals {
		if q.Sign == Negative && !contains(present, q.Name) {
			e |= 1 << uint(i)
		}
	}
	return e, nil
}

// MustElem is Elem but panics on error.
func (s *Set) MustElem(present ...string) Elem {
	e, err := s.Elem(present...)
	if err != nil {
		panic(err)
	}
	return e
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// Has reports whether the named qualifier is present in e.
func (s *Set) Has(e Elem, name string) bool {
	i, ok := s.index[name]
	if !ok {
		return false
	}
	bit := e&(1<<uint(i)) != 0
	if s.quals[i].Sign == Positive {
		return bit
	}
	return !bit
}

// With returns e with the named qualifier made present. It fails on
// unknown names.
func (s *Set) With(e Elem, name string) (Elem, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("qual: unknown qualifier %q", name)
	}
	if s.quals[i].Sign == Positive {
		return e | 1<<uint(i), nil
	}
	return e &^ (1 << uint(i)), nil
}

// Without returns e with the named qualifier made absent.
func (s *Set) Without(e Elem, name string) (Elem, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("qual: unknown qualifier %q", name)
	}
	if s.quals[i].Sign == Positive {
		return e &^ (1 << uint(i)), nil
	}
	return e | 1<<uint(i), nil
}

// Not returns the element written ¬q in the paper: the greatest lattice
// element in which q is absent. For a positive qualifier it is the
// natural upper bound for assertions such as e|¬const ("e must not be
// const"); for a negative qualifier it degenerates to ⊤ (use Require to
// demand a negative qualifier instead).
func (s *Set) Not(name string) (Elem, error) {
	return s.Without(s.Top(), name)
}

// Require returns the greatest lattice element in which q is present: the
// natural upper bound for assertions that demand a negative qualifier,
// such as e|nonzero ("e must be nonzero"). For a positive qualifier it
// degenerates to ⊤.
func (s *Set) Require(name string) (Elem, error) {
	return s.With(s.Top(), name)
}

// MustRequire is Require but panics on error.
func (s *Set) MustRequire(name string) Elem {
	e, err := s.Require(name)
	if err != nil {
		panic(err)
	}
	return e
}

// MustNot is Not but panics on error.
func (s *Set) MustNot(name string) Elem {
	e, err := s.Not(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Only returns the least lattice element in which q is present: ⊥ with q
// turned on. It is the natural lower bound for annotations such as
// "const e".
func (s *Set) Only(name string) (Elem, error) {
	return s.With(s.Bottom(), name)
}

// MustOnly is Only but panics on error.
func (s *Set) MustOnly(name string) Elem {
	e, err := s.Only(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Mask returns the sub-lattice mask selecting exactly the named
// components. Masks parameterize per-component constraints (used, for
// example, by binding-time well-formedness rules that relate only the
// dynamic component of two qualifier sets).
func (s *Set) Mask(names ...string) (Elem, error) {
	var m Elem
	for _, name := range names {
		i, ok := s.index[name]
		if !ok {
			return 0, fmt.Errorf("qual: unknown qualifier %q", name)
		}
		m |= 1 << uint(i)
	}
	return m, nil
}

// MustMask is Mask but panics on error.
func (s *Set) MustMask(names ...string) Elem {
	m, err := s.Mask(names...)
	if err != nil {
		panic(err)
	}
	return m
}

// FullMask selects every component of the lattice.
func (s *Set) FullMask() Elem { return s.Top() }

// Leq reports a ⊑ b in the product lattice.
func Leq(a, b Elem) bool { return a&^b == 0 }

// Join returns a ⊔ b.
func Join(a, b Elem) Elem { return a | b }

// Meet returns a ⊓ b.
func Meet(a, b Elem) Elem { return a & b }

// LeqMask reports a ⊑ b restricted to the components in mask.
func LeqMask(a, b, mask Elem) bool { return (a&mask)&^(b&mask) == 0 }

// String renders e as the space-separated list of present qualifiers, the
// notation used throughout the paper (absent qualifiers are omitted). The
// bottom-of-everything element renders as "⊥-ish" empty string; Format
// callers typically want Describe instead.
func (s *Set) String(e Elem) string {
	var parts []string
	for _, q := range s.quals {
		if s.Has(e, q.Name) {
			parts = append(parts, q.Name)
		}
	}
	return strings.Join(parts, " ")
}

// Describe renders e unambiguously, writing absent qualifiers of either
// sign explicitly when verbose diagnostics are needed.
func (s *Set) Describe(e Elem) string {
	return s.DescribeMask(e, s.Top())
}

// DescribeMask renders only the components of e selected by mask. It is
// the Describe for diagnostics about masked constraints: in a product
// lattice shared by several analyses, a conflict on one component should
// not drag the other analyses' qualifiers into the message.
func (s *Set) DescribeMask(e, mask Elem) string {
	var parts []string
	for i, q := range s.quals {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if s.Has(e, q.Name) {
			parts = append(parts, q.Name)
		} else {
			parts = append(parts, q.negLabel())
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// negLabel is how the qualifier's absent state is spelled in diagnostics.
func (q Qualifier) negLabel() string {
	if q.NegName != "" {
		return q.NegName
	}
	return "¬" + q.Name
}

// Parse interprets a space-separated list of qualifier names as the
// lattice element with exactly those qualifiers present.
func (s *Set) Parse(text string) (Elem, error) {
	fields := strings.Fields(text)
	return s.Elem(fields...)
}

// Elems enumerates every element of the lattice in an order consistent
// with ⊑ (a appears before b whenever a ⊏ b). It is intended for small
// lattices (tests, lattice diagrams); the result has 2^Len entries.
func (s *Set) Elems() []Elem {
	n := uint(len(s.quals))
	out := make([]Elem, 0, 1<<n)
	for v := uint64(0); v < 1<<n; v++ {
		out = append(out, Elem(v))
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := popcount(out[i]), popcount(out[j])
		if pi != pj {
			return pi < pj
		}
		return out[i] < out[j]
	})
	return out
}

func popcount(e Elem) int {
	n := 0
	for v := uint64(e); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Covers reports whether b covers a in the lattice: a ⊏ b with no element
// strictly between. In the product of two-point lattices this holds
// exactly when b is a with one additional bit.
func Covers(a, b Elem) bool {
	d := uint64(b &^ a)
	return a != b && uint64(a)&^uint64(b) == 0 && d&(d-1) == 0
}

// HasseEdges returns all covering pairs (a, b) of the lattice, the edge
// set of its Hasse diagram (Figure 2 of the paper is the diagram for
// {const, dynamic, nonzero}). Intended for small lattices.
func (s *Set) HasseEdges() [][2]Elem {
	elems := s.Elems()
	var edges [][2]Elem
	for _, a := range elems {
		for _, b := range elems {
			if Covers(a, b) {
				edges = append(edges, [2]Elem{a, b})
			}
		}
	}
	return edges
}

// HasseDiagram renders the lattice level by level, bottom first, one line
// per rank, with the covering relation listed underneath. It reproduces
// the information content of Figure 2.
func (s *Set) HasseDiagram() string {
	elems := s.Elems()
	byRank := make(map[int][]Elem)
	maxRank := 0
	for _, e := range elems {
		r := popcount(e)
		byRank[r] = append(byRank[r], e)
		if r > maxRank {
			maxRank = r
		}
	}
	var b strings.Builder
	for r := maxRank; r >= 0; r-- {
		var names []string
		for _, e := range byRank[r] {
			n := s.String(e)
			if n == "" {
				n = "∅"
			}
			names = append(names, n)
		}
		fmt.Fprintf(&b, "rank %d: %s\n", r, strings.Join(names, "   |   "))
	}
	b.WriteString("covers:\n")
	for _, edge := range s.HasseEdges() {
		lo, hi := s.String(edge[0]), s.String(edge[1])
		if lo == "" {
			lo = "∅"
		}
		if hi == "" {
			hi = "∅"
		}
		fmt.Fprintf(&b, "  %s ⊏ %s\n", lo, hi)
	}
	return b.String()
}
