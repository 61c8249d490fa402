// Package analysis is the pluggable qualifier-analysis registry: the
// repository's concrete form of the paper's central claim that the type
// system is parameterized by an arbitrary lattice of type qualifiers
// (Definitions 1–2 of "A Theory of Type Qualifiers", PLDI 1999).
//
// An Analysis value describes one qualifier analysis: the qualifier it
// contributes to the product lattice, the per-construct hooks both
// front ends invoke while generating constraints (declaration seeding,
// the Assign' write rule, the return rule, the conservative library
// rule), and the annotation vocabulary a prelude file may use to
// declare library seeds and sinks. Analyses are registered by name; a Suite binds a
// chosen set of them to one shared product lattice so they all run in a
// single constraint pass, separated by the per-component masks the
// solver already supports.
//
// Four instances ship with the registry: "const" (the paper's Section
// 4 const inference, a positive qualifier), "taint" (tainted ⊑
// untainted, a negative qualifier whose seeds and sinks come entirely
// from a prelude file — e.g. getenv returns tainted, the printf format
// argument must be untainted), "unique" (unique ⊑ shared with an
// escape/recovery rule at call boundaries; see unique.go) and
// "fdstate" (an open/closed resource checker; see fdstate.go).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// AnnKind says which side of the subtype relation a prelude annotation
// constrains.
type AnnKind int

// Annotation kinds.
const (
	// Seed lower-bounds the annotated position: the pinned qualifier
	// value flows from it (e.g. "getenv returns tainted").
	Seed AnnKind = iota
	// Sink upper-bounds the annotated position: everything flowing into
	// it must fit under the pinned value (e.g. "the printf format
	// argument must be untainted").
	Sink
	// Borrow emits no constraint at all; its entire effect is that the
	// prelude entry covers the function, suppressing the analysis's
	// conservative LibRef rule for the call. It is the recovery rule at
	// call boundaries (Giannini et al.): a borrowed position is used
	// for the duration of the call and handed back unchanged.
	Borrow
)

func (k AnnKind) String() string {
	switch k {
	case Seed:
		return "seed"
	case Sink:
		return "sink"
	case Borrow:
		return "borrow"
	default:
		return fmt.Sprintf("AnnKind(%d)", int(k))
	}
}

// Annotation is one word of an analysis's prelude vocabulary. The
// lattice element it pins is derived from the analysis's qualifier:
// Present selects the value with the qualifier present, ¬Present the
// value with it absent.
type Annotation struct {
	Kind    AnnKind
	Present bool
	Doc     string
}

// LibUse describes one use of a library (undefined) function that an
// analysis's conservative rule may want to constrain.
type LibUse struct {
	// Fn is the function name.
	Fn string
	// Pos is the declaration position (prototype rule) or the argument
	// position (implicit-declaration call sites).
	Pos constraint.Pos
	// DeclaredConst reports whether the reference was declared const in
	// the prototype.
	DeclaredConst bool
	// Implicit marks a call site of an implicitly declared function.
	Implicit bool
}

// Hooks are the per-construct extension points of the constraint
// generators. A nil hook means the analysis has no rule for that
// construct. Both engines fire DeclQual, Write and Return through the
// Suite methods of the same names; each applies LibRef itself, at the
// point its library-call rule sits. Hooks must be pure constraint
// emitters: they may only add constraints to the supplied system.
type Hooks struct {
	// DeclQual seeds a freshly created reference from source-declared C
	// qualifiers: declaredConst reports a const spelled on the
	// reference's declaration level, at constPos (the zero Pos when
	// declaredConst is false).
	DeclQual func(sys *constraint.System, b *Binding, q constraint.Term, declaredConst bool, constPos constraint.Pos)
	// Write is the paper's Assign' rule: the target reference (and any
	// guarding enclosing qualifiers, e.g. the struct object of a member
	// write) is written through.
	Write func(sys *constraint.System, b *Binding, target constraint.Term, guards []constraint.Term, why constraint.Reason)
	// LibRef is the conservative rule for one reference level of a
	// library function's parameter or argument, applied only when no
	// prelude entry covers the function for this analysis.
	LibRef func(sys *constraint.System, b *Binding, use LibUse, q constraint.Term)
	// Return is applied to every value returned from a function defined
	// in the analyzed corpus (e.g. fd-state upper-bounds returned
	// handles away from closed, so a may-closed descriptor escaping to
	// the caller is flagged at the return site).
	Return func(sys *constraint.System, b *Binding, ret constraint.Term, why constraint.Reason)
}

// Analysis describes one registered qualifier analysis.
type Analysis struct {
	// Name is the registry key, e.g. "const" or "taint".
	Name string
	// Qual is the qualifier the analysis contributes to the product
	// lattice.
	Qual qual.Qualifier
	// Doc is a one-line description for `cqual -analyses`.
	Doc string
	// WantsPrelude marks analyses whose seeds and sinks come from a
	// prelude file; running them without one is legal but finds nothing.
	WantsPrelude bool
	// Annotations is the prelude vocabulary, keyed by annotation name.
	Annotations map[string]Annotation
	// Hooks are the per-construct constraint rules.
	Hooks Hooks
}

// AnnotationNames returns the vocabulary in sorted order.
func (a *Analysis) AnnotationNames() []string {
	names := make([]string, 0, len(a.Annotations))
	for n := range a.Annotations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Analysis{}
)

// Register adds an analysis to the registry. It panics on an empty or
// duplicate name — registration is package-init-time configuration, not
// runtime input.
func Register(a *Analysis) {
	regMu.Lock()
	defer regMu.Unlock()
	if a.Name == "" {
		panic("analysis: Register with empty name")
	}
	if _, dup := registry[a.Name]; dup {
		panic("analysis: duplicate registration of " + a.Name)
	}
	registry[a.Name] = a
}

// Lookup returns the registered analysis of that name.
func Lookup(name string) (*Analysis, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// Names returns the registered analysis names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Binding is an Analysis bound to a concrete product lattice: its
// component mask, the two values of its qualifier as mask-restricted
// lattice elements, and the prelude attached to it (if any). Bindings
// are immutable after Suite construction and safe for concurrent use.
type Binding struct {
	A   *Analysis
	Set *qual.Set
	// Mask selects this analysis's component of the product lattice.
	Mask qual.Elem
	// Present/Absent are the component values with the qualifier
	// present resp. absent, restricted to Mask.
	Present, Absent qual.Elem

	prelude *Prelude
}

// HasPrelude reports whether a prelude is attached.
func (b *Binding) HasPrelude() bool { return b.prelude != nil }

// Entry returns the prelude entry for a library function, if any.
func (b *Binding) Entry(fn string) (*Entry, bool) {
	if b.prelude == nil {
		return nil, false
	}
	e, ok := b.prelude.Entries[fn]
	return e, ok
}

// Apply adds the constraint an annotation denotes on term t: Seed
// annotations lower-bound it with the pinned value, Sink annotations
// upper-bound it, Borrow annotations add nothing (covering the entry
// is their whole effect). Names outside the vocabulary are a no-op
// (the prelude parser already rejects them; Apply stays total).
func (b *Binding) Apply(sys *constraint.System, name string, t constraint.Term, why constraint.Reason) {
	ann, ok := b.A.Annotations[name]
	if !ok {
		return
	}
	val := b.Absent
	if ann.Present {
		val = b.Present
	}
	switch ann.Kind {
	case Seed:
		if val&b.Mask == 0 {
			return // lower bound ⊥ on this component: trivial
		}
		sys.AddMasked(constraint.C(val), t, b.Mask, why)
	case Sink:
		if val&b.Mask == b.Mask {
			return // upper bound ⊤ on this component: trivial
		}
		sys.AddMasked(t, constraint.C(val|^b.Mask), b.Mask, why)
	}
}

// annVerb phrases an annotation for provenance messages: sinks are
// obligations, seeds are facts, borrows are neither.
func annVerb(k AnnKind) string {
	switch k {
	case Sink:
		return "must be"
	case Borrow:
		return "is only"
	default:
		return "is"
	}
}

// TokenPos is constraint.TokenPos, for the positions the Go front end
// passes to ApplyParam, ApplyRecv and LibUse. The self-analysis loader
// gives this package its own copy of package constraint (ROADMAP item 1),
// so a constraint.Pos built in the Go front end is, to that lint, another
// type; one built here is not.
func TokenPos(p token.Position) constraint.Pos { return constraint.TokenPos(p) }

// ApplyParam applies the prelude annotation for argument i (0-based) of
// a call to the entry's function; pos is the argument's source
// position. Unannotated ("_") and variadic-extra arguments are left
// unconstrained.
func (b *Binding) ApplyParam(sys *constraint.System, ent *Entry, i int, t constraint.Term, pos constraint.Pos) {
	name := ent.Param(i)
	if name == "" || name == Wildcard {
		return
	}
	ann, ok := b.A.Annotations[name]
	if !ok {
		return
	}
	why := constraint.Reason{
		Pos: pos,
		Msg: fmt.Sprintf("argument %d of %q %s %s (prelude %s)", i+1, ent.Func, annVerb(ann.Kind), name, ent.Pos),
	}
	b.Apply(sys, name, t, why)
}

// ApplyRecv applies the entry's receiver annotation (`recv: ann`, Go
// method entries) to the receiver value at a call site; pos is the
// call's source position. Entries without one are left unconstrained.
func (b *Binding) ApplyRecv(sys *constraint.System, ent *Entry, t constraint.Term, pos constraint.Pos) {
	name := ent.Recv
	if name == "" || name == Wildcard {
		return
	}
	ann, ok := b.A.Annotations[name]
	if !ok {
		return
	}
	why := constraint.Reason{
		Pos: pos,
		Msg: fmt.Sprintf("receiver of %q %s %s (prelude %s)", ent.Func, annVerb(ann.Kind), name, ent.Pos),
	}
	b.Apply(sys, name, t, why)
}

// ApplyResult applies the entry's result annotation to the shared
// return type of the library function's signature.
func (b *Binding) ApplyResult(sys *constraint.System, ent *Entry, t constraint.Term) {
	name := ent.Result
	if name == "" || name == Wildcard {
		return
	}
	ann, ok := b.A.Annotations[name]
	if !ok {
		return
	}
	why := constraint.Reason{
		Pos: constraint.Pos{File: ent.Pos}, // "path:line", formatted by the prelude parser
		Msg: fmt.Sprintf("result of %q %s %s (prelude)", ent.Func, annVerb(ann.Kind), name),
	}
	b.Apply(sys, name, t, why)
}

// Suite is a set of analyses bound to one shared product lattice, ready
// to run in a single constraint pass. Suites are immutable and safe for
// concurrent use.
type Suite struct {
	set      *qual.Set
	bindings []*Binding
	byName   map[string]*Binding
	names    []string
	fp       string
}

// NewSuite binds the named analyses (nil or empty selects the classic
// const inference) to a fresh product lattice and attaches the parsed
// preludes to their target analyses. It fails on unknown or duplicate
// analysis names, preludes targeting analyses outside the suite, and
// duplicate prelude entries for one function of one analysis.
func NewSuite(names []string, preludes []*Prelude) (*Suite, error) {
	if len(names) == 0 {
		names = []string{"const"}
	}
	s := &Suite{byName: make(map[string]*Binding, len(names))}
	var quals []qual.Qualifier
	var as []*Analysis
	seen := map[string]bool{}
	for _, n := range names {
		a, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analysis %q (registered: %s)", n, strings.Join(Names(), ", "))
		}
		if seen[n] {
			return nil, fmt.Errorf("analysis: analysis %q selected twice", n)
		}
		seen[n] = true
		as = append(as, a)
		quals = append(quals, a.Qual)
		s.names = append(s.names, n)
	}
	set, err := qual.NewSet(quals...)
	if err != nil {
		return nil, err
	}
	s.set = set
	for _, a := range as {
		mask := set.MustMask(a.Qual.Name)
		present, err := set.With(set.Bottom(), a.Qual.Name)
		if err != nil {
			return nil, err
		}
		absent, err := set.Without(set.Bottom(), a.Qual.Name)
		if err != nil {
			return nil, err
		}
		b := &Binding{
			A: a, Set: set, Mask: mask,
			Present: present & mask, Absent: absent & mask,
		}
		s.bindings = append(s.bindings, b)
		s.byName[a.Name] = b
	}
	for _, p := range preludes {
		b := s.byName[p.Analysis]
		if b == nil {
			return nil, fmt.Errorf("analysis: prelude %s targets analysis %q, which is not enabled (enabled: %s)",
				p.Path, p.Analysis, strings.Join(s.names, ", "))
		}
		if b.prelude == nil {
			b.prelude = p
			continue
		}
		merged, err := b.prelude.Merge(p)
		if err != nil {
			return nil, err
		}
		b.prelude = merged
	}
	return s, nil
}

// Default is the classic single-analysis const suite.
func Default() *Suite {
	s, err := NewSuite(nil, nil)
	if err != nil {
		panic(err) // const is always registered
	}
	return s
}

// Set returns the shared product lattice.
func (s *Suite) Set() *qual.Set { return s.set }

// Names returns the analyses in suite order.
func (s *Suite) Names() []string { return append([]string(nil), s.names...) }

// Bindings returns the bound analyses in suite order; the slice must
// not be modified.
func (s *Suite) Bindings() []*Binding { return s.bindings }

// Binding returns the named binding, or nil.
func (s *Suite) Binding(name string) *Binding { return s.byName[name] }

// DeclQual runs every analysis's DeclQual hook, in binding order, on a
// freshly created reference q.
func (s *Suite) DeclQual(sys *constraint.System, q constraint.Term, declaredConst bool, constPos constraint.Pos) {
	for _, b := range s.bindings {
		if h := b.A.Hooks.DeclQual; h != nil {
			h(sys, b, q, declaredConst, constPos)
		}
	}
}

// Write runs every analysis's write rule (the paper's Assign'), in
// binding order, on a written-through reference and the qualifiers
// guarding it.
func (s *Suite) Write(sys *constraint.System, target constraint.Term, guards []constraint.Term, why constraint.Reason) {
	for _, b := range s.bindings {
		if h := b.A.Hooks.Write; h != nil {
			h(sys, b, target, guards, why)
		}
	}
}

// Return runs every analysis's Return hook, in binding order, on a value
// returned at pos from the defined function fn. The reason, "returned
// from fn", is built only when some analysis has the hook.
func (s *Suite) Return(sys *constraint.System, ret constraint.Term, pos constraint.Pos, fn string) {
	for _, b := range s.bindings {
		if h := b.A.Hooks.Return; h != nil {
			h(sys, b, ret, constraint.Reason{Pos: pos, Msg: "returned from " + fn})
		}
	}
}

// Owner names the analysis owning the lowest lattice component set in
// bits — the analysis a conflict on those bits belongs to. Bindings
// contribute one qualifier each, in suite order, so component i belongs
// to binding i.
func (s *Suite) Owner(bits qual.Elem) string {
	for i := range s.bindings {
		if bits&(qual.Elem(1)<<uint(i)) != 0 {
			return s.bindings[i].A.Name
		}
	}
	return ""
}
