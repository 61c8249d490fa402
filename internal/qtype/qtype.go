// Package qtype implements the standard and qualified type languages of
// "A Theory of Type Qualifiers" (PLDI 1999), Sections 2.1 and 3.1.
//
// Standard types are terms over a set of type constructors Σ and type
// variables. A qualified type ρ = Q τ pairs a qualifier term Q (a lattice
// element or a qualifier variable) with a standard type whose arguments
// are themselves qualified. Each constructor declares the variance of its
// argument positions, which determines the generic subtyping rule:
//
//	Q ⊑ Q'   args related per variance
//	--------------------------------------
//	Q c(ρ1…ρn)  ≤  Q' c(ρ1'…ρn')
//
// Covariant positions recurse with ≤, contravariant positions with ≥
// (function domains), and invariant positions with = (updateable
// references, the paper's SubRef rule that repairs the classic
// subtyping-under-ref unsoundness).
//
// The package also provides the paper's translation functions: Strip
// (erase qualifiers), Sp (the spread operation: rewrite a standard type as
// a qualified type with fresh qualifier variables at every constructor),
// and Bottom (⊥(τ): all qualifiers at the bottom lattice element).
package qtype

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// Variance describes how a constructor argument position interacts with
// subtyping.
type Variance int

const (
	// Covariant positions preserve the direction of subtyping
	// (function results).
	Covariant Variance = iota
	// Contravariant positions reverse it (function parameters).
	Contravariant
	// Invariant positions demand equality (ref contents; the paper's
	// SubRef rule).
	Invariant
)

func (v Variance) String() string {
	switch v {
	case Covariant:
		return "covariant"
	case Contravariant:
		return "contravariant"
	case Invariant:
		return "invariant"
	default:
		return fmt.Sprintf("Variance(%d)", int(v))
	}
}

// Constructor is one element of Σ. Constructors are compared by pointer
// identity, so each language defines its constructors once.
type Constructor struct {
	// Name is used for printing and error messages, e.g. "int", "→", "ref".
	Name string
	// Variance has one entry per argument; its length is the arity.
	Variance []Variance
	// Infix renders binary constructors between their arguments.
	Infix bool
}

// Arity returns the number of arguments.
func (c *Constructor) Arity() int { return len(c.Variance) }

// Type is a standard-type node: either a type variable (Con == nil) or a
// constructor applied to qualified types. Type variables support
// destructive unification through the link field; always access nodes
// through Resolve.
type Type struct {
	Con  *Constructor
	Args []*QType

	// Variable state (Con == nil).
	id   int
	link *Type
}

// IsVar reports whether the resolved node is an unbound type variable.
func (t *Type) IsVar() bool { return t.Resolve().Con == nil }

// VarID returns the identifier of a variable node (after Resolve).
func (t *Type) VarID() int { return t.Resolve().id }

// Resolve chases unification links to the representative node, performing
// path compression.
func (t *Type) Resolve() *Type {
	r := t
	for r.link != nil {
		r = r.link
	}
	for t.link != nil {
		next := t.link
		t.link = r
		t = next
	}
	return r
}

// QType is a qualified type ρ = Q τ.
type QType struct {
	Q constraint.Term
	T *Type
}

// Builder allocates fresh type variables and fresh qualifier variables
// tied to one constraint system.
type Builder struct {
	Sys *constraint.System
	// OnNode, when non-nil, is invoked for every parent/child qualifier
	// pair of every constructed type node — both explicit constructions
	// through Apply and implicit ones created when a type variable is
	// spread against a constructor. Qualifier designers use it to install
	// structural well-formedness constraints, such as binding-time
	// analysis's rule that nothing dynamic may appear inside a static
	// value (Section 2 of the paper).
	OnNode  func(parent, child constraint.Term)
	nextVar int
}

func (b *Builder) notifyNode(parent constraint.Term, args []*QType) {
	if b.OnNode == nil {
		return
	}
	for _, a := range args {
		b.OnNode(parent, a.Q)
	}
}

// NewBuilder creates a builder over the constraint system.
func NewBuilder(sys *constraint.System) *Builder {
	return &Builder{Sys: sys}
}

// FreshTVar allocates a fresh unbound type variable.
func (b *Builder) FreshTVar() *Type {
	b.nextVar++
	return &Type{id: b.nextVar}
}

// FreshQ allocates a fresh qualifier variable term.
func (b *Builder) FreshQ() constraint.Term {
	return constraint.V(b.Sys.Fresh())
}

// Qual wraps a standard type with a fresh qualifier variable.
func (b *Builder) Qual(t *Type) *QType {
	return &QType{Q: b.FreshQ(), T: t}
}

// Apply builds c(args...) wrapped with a fresh qualifier variable.
func (b *Builder) Apply(c *Constructor, args ...*QType) *QType {
	if len(args) != c.Arity() {
		panic(fmt.Sprintf("qtype: constructor %s expects %d args, got %d", c.Name, c.Arity(), len(args)))
	}
	q := b.Qual(&Type{Con: c, Args: args})
	b.notifyNode(q.Q, args)
	return q
}

// ApplyConst builds c(args...) with a constant top-level qualifier, as the
// checking rules of Figure 4 do for value introductions (⊥ at Lam, Ref,
// Int, Unit).
func (b *Builder) ApplyConst(q qual.Elem, c *Constructor, args ...*QType) *QType {
	if len(args) != c.Arity() {
		panic(fmt.Sprintf("qtype: constructor %s expects %d args, got %d", c.Name, c.Arity(), len(args)))
	}
	qt := &QType{Q: constraint.C(q), T: &Type{Con: c, Args: args}}
	b.notifyNode(qt.Q, args)
	return qt
}

// TypeError reports a standard-type mismatch (the underlying simple type
// system rejected the program; qualifier constraints are not involved).
type TypeError struct {
	Pos  string
	Msg  string
	Want string
	Got  string
}

func (e *TypeError) Error() string {
	var b strings.Builder
	if e.Pos != "" {
		b.WriteString(e.Pos)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	if e.Want != "" || e.Got != "" {
		fmt.Fprintf(&b, " (want %s, got %s)", e.Want, e.Got)
	}
	return b.String()
}

// occurs reports whether variable v appears in (resolved) t.
func occurs(v *Type, t *Type) bool {
	t = t.Resolve()
	if t == v {
		return true
	}
	if t.Con == nil {
		return false
	}
	for _, a := range t.Args {
		if occurs(v, a.T) {
			return true
		}
	}
	return false
}

// bind links variable node v to type t with an occurs check.
func bind(v *Type, t *Type, pos constraint.Pos) error {
	if occurs(v, t) {
		return &TypeError{Pos: pos.String(), Msg: "infinite type (occurs check failed)"}
	}
	v.link = t
	return nil
}

// cloneSkeleton copies the skeleton of t, giving every constructor level a
// fresh qualifier variable. Unbound variables inside t are shared, not
// copied, so later bindings propagate. This is the sp discipline applied
// during subtype decomposition: when a type variable meets a constructor,
// the variable is bound to a fresh spread copy so that qualifiers on the
// two sides stay independent and related only by the generated
// constraints.
func (b *Builder) cloneSkeleton(t *Type) *Type {
	t = t.Resolve()
	if t.Con == nil {
		return t
	}
	args := make([]*QType, len(t.Args))
	for i, a := range t.Args {
		args[i] = &QType{Q: b.FreshQ(), T: b.cloneSkeleton(a.T)}
	}
	return &Type{Con: t.Con, Args: args}
}

// cloneQ clones the skeleton of t and reports the parent/child structure
// to OnNode; Subtype and Equal use it so that well-formedness rules also
// cover implicitly spread types.
func (b *Builder) cloneQ(parent constraint.Term, t *Type) *Type {
	clone := b.cloneSkeleton(t)
	b.notifyAll(parent, clone)
	return clone
}

func (b *Builder) notifyAll(parent constraint.Term, t *Type) {
	if b.OnNode == nil || t.Con == nil {
		return
	}
	b.notifyNode(parent, t.Args)
	for _, a := range t.Args {
		b.notifyAll(a.Q, a.T.Resolve())
	}
}

// Subtype records the constraints for a ≤ b: the top-level qualifier
// constraint plus the per-argument constraints dictated by the
// constructor's variance. Standard-type structure is forced by
// unification; a constructor clash is returned as a *TypeError.
func (b *Builder) Subtype(a, c *QType, why constraint.Reason) error {
	b.Sys.Add(a.Q, c.Q, why)
	return b.relate(a.Q, a.T, c.Q, c.T, why)
}

// Equal records a = b: both qualifier inequalities and structural
// equality.
func (b *Builder) Equal(a, c *QType, why constraint.Reason) error {
	b.Sys.Add(a.Q, c.Q, why)
	b.Sys.Add(c.Q, a.Q, why)
	return b.unifyEqual(a.Q, a.T, c.Q, c.T, why)
}

// relate decomposes the standard-type part of a subtype constraint. qa
// and qb are the qualifier terms sitting above ta and tb, needed so that
// spread clones report well-formedness structure to OnNode.
func (b *Builder) relate(qa constraint.Term, ta *Type, qb constraint.Term, tb *Type, why constraint.Reason) error {
	ta, tb = ta.Resolve(), tb.Resolve()
	if ta == tb {
		return nil
	}
	if ta.Con == nil && tb.Con == nil {
		// Two variables: subtyping does not change structure, so they must
		// share a skeleton; identify them.
		return bind(ta, tb, why.Pos)
	}
	if ta.Con == nil {
		clone := b.cloneQ(qa, tb)
		if err := bind(ta, clone, why.Pos); err != nil {
			return err
		}
		return b.relateArgs(clone, tb, why)
	}
	if tb.Con == nil {
		clone := b.cloneQ(qb, ta)
		if err := bind(tb, clone, why.Pos); err != nil {
			return err
		}
		return b.relateArgs(ta, clone, why)
	}
	if ta.Con != tb.Con {
		return &TypeError{Pos: why.Pos.String(), Msg: "type constructor mismatch in " + why.Msg, Want: tb.Con.Name, Got: ta.Con.Name}
	}
	return b.relateArgs(ta, tb, why)
}

func (b *Builder) relateArgs(ta, tb *Type, why constraint.Reason) error {
	for i, v := range ta.Con.Variance {
		var err error
		switch v {
		case Covariant:
			err = b.Subtype(ta.Args[i], tb.Args[i], why)
		case Contravariant:
			err = b.Subtype(tb.Args[i], ta.Args[i], why)
		case Invariant:
			err = b.Equal(ta.Args[i], tb.Args[i], why)
		default:
			err = fmt.Errorf("qtype: invalid variance %v", v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// unifyEqual decomposes structural equality, sharing skeletons where a
// variable is involved but still equating qualifiers on concrete spines.
func (b *Builder) unifyEqual(qa constraint.Term, ta *Type, qb constraint.Term, tb *Type, why constraint.Reason) error {
	ta, tb = ta.Resolve(), tb.Resolve()
	if ta == tb {
		return nil
	}
	if ta.Con == nil {
		if err := bind(ta, tb, why.Pos); err != nil {
			return err
		}
		// The variable's context now sees tb's structure.
		b.notifyAll(qa, tb)
		return nil
	}
	if tb.Con == nil {
		if err := bind(tb, ta, why.Pos); err != nil {
			return err
		}
		b.notifyAll(qb, ta)
		return nil
	}
	if ta.Con != tb.Con {
		return &TypeError{Pos: why.Pos.String(), Msg: "type constructor mismatch in " + why.Msg, Want: tb.Con.Name, Got: ta.Con.Name}
	}
	for i := range ta.Args {
		if err := b.Equal(ta.Args[i], tb.Args[i], why); err != nil {
			return err
		}
	}
	return nil
}

// SType is a standard (qualifier-free) type, the image of Strip and the
// domain of Sp and Bottom. Variables are identified by VarID.
type SType struct {
	Con   *Constructor
	Args  []*SType
	VarID int
}

// Strip removes every qualifier from ρ (the paper's strip(·)).
func Strip(q *QType) *SType {
	return stripT(q.T)
}

func stripT(t *Type) *SType {
	t = t.Resolve()
	if t.Con == nil {
		return &SType{VarID: t.id}
	}
	s := &SType{Con: t.Con, Args: make([]*SType, len(t.Args))}
	for i, a := range t.Args {
		s.Args[i] = Strip(a)
	}
	return s
}

// Sp is the spread operation sp(V, τ) of Section 3.1: it rewrites a
// standard type as a qualified type, allocating a fresh qualifier
// variable at every constructor. The vars map plays the role of V,
// consistently rewriting type variables; it may be nil for closed types
// and is extended as new variables are encountered.
func (b *Builder) Sp(s *SType, vars map[int]*Type) *QType {
	return &QType{Q: b.FreshQ(), T: b.spT(s, vars)}
}

func (b *Builder) spT(s *SType, vars map[int]*Type) *Type {
	if s.Con == nil {
		if vars == nil {
			return b.FreshTVar()
		}
		if v, ok := vars[s.VarID]; ok {
			return v
		}
		v := b.FreshTVar()
		vars[s.VarID] = v
		return v
	}
	args := make([]*QType, len(s.Args))
	for i, a := range s.Args {
		args[i] = b.Sp(a, vars)
	}
	return &Type{Con: s.Con, Args: args}
}

// Bottom is ⊥(τ): the qualified type with the same structure as τ and
// every qualifier at the bottom lattice element (Section 2.3). Type
// variables are rewritten consistently through vars, as in Sp.
func Bottom(set *qual.Set, s *SType, vars map[int]*Type) *QType {
	return &QType{Q: constraint.C(set.Bottom()), T: bottomT(set, s, vars)}
}

func bottomT(set *qual.Set, s *SType, vars map[int]*Type) *Type {
	if s.Con == nil {
		if vars == nil {
			return &Type{id: s.VarID}
		}
		if v, ok := vars[s.VarID]; ok {
			return v
		}
		v := &Type{id: s.VarID}
		vars[s.VarID] = v
		return v
	}
	args := make([]*QType, len(s.Args))
	for i, a := range s.Args {
		args[i] = Bottom(set, a, vars)
	}
	return &Type{Con: s.Con, Args: args}
}

// EqualSType reports structural equality of standard types up to a
// consistent renaming of type variables.
func EqualSType(a, b *SType) bool {
	return equalSType(a, b, map[int]int{}, map[int]int{})
}

func equalSType(a, b *SType, fwd, rev map[int]int) bool {
	if (a.Con == nil) != (b.Con == nil) {
		return false
	}
	if a.Con == nil {
		if m, ok := fwd[a.VarID]; ok {
			return m == b.VarID
		}
		if m, ok := rev[b.VarID]; ok {
			return m == a.VarID
		}
		fwd[a.VarID] = b.VarID
		rev[b.VarID] = a.VarID
		return true
	}
	if a.Con != b.Con || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !equalSType(a.Args[i], b.Args[i], fwd, rev) {
			return false
		}
	}
	return true
}

func (s *SType) String() string {
	if s.Con == nil {
		return fmt.Sprintf("α%d", s.VarID)
	}
	if len(s.Args) == 0 {
		return s.Con.Name
	}
	if s.Con.Infix && len(s.Args) == 2 {
		return fmt.Sprintf("(%s %s %s)", s.Args[0], s.Con.Name, s.Args[1])
	}
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", s.Con.Name, strings.Join(parts, ", "))
}

// FreeQVars appends the qualifier variables appearing in ρ to out,
// left-to-right, outermost first.
func FreeQVars(q *QType, out []constraint.Var) []constraint.Var {
	if q.Q.IsVar() {
		out = append(out, q.Q.Var())
	}
	t := q.T.Resolve()
	if t.Con != nil {
		for _, a := range t.Args {
			out = FreeQVars(a, out)
		}
	}
	return out
}

// FreeTVars appends the unbound type variables of ρ to out.
func FreeTVars(q *QType, out []*Type) []*Type {
	t := q.T.Resolve()
	if t.Con == nil {
		return append(out, t)
	}
	for _, a := range t.Args {
		out = FreeTVars(a, out)
	}
	return out
}

// Format renders ρ with qualifiers resolved against the qualifier set;
// qualifier variables print as κn and empty constant qualifiers are
// omitted, matching the paper's convention.
func (q *QType) Format(set *qual.Set) string {
	var b strings.Builder
	formatQ(&b, set, q, nil)
	return b.String()
}

// FormatSolved renders ρ using the solved lower bounds of a constraint
// system in place of qualifier variables.
func (q *QType) FormatSolved(set *qual.Set, sys *constraint.System) string {
	var b strings.Builder
	formatQ(&b, set, q, sys)
	return b.String()
}

func formatQ(b *strings.Builder, set *qual.Set, q *QType, sys *constraint.System) {
	prefix := ""
	if q.Q.IsVar() {
		if sys != nil {
			prefix = set.String(sys.Lower(q.Q.Var()))
		} else {
			prefix = fmt.Sprintf("κ%d", int(q.Q.Var()))
		}
	} else {
		prefix = set.String(q.Q.Const())
	}
	if prefix != "" {
		b.WriteString(prefix)
		b.WriteString(" ")
	}
	t := q.T.Resolve()
	if t.Con == nil {
		fmt.Fprintf(b, "α%d", t.id)
		return
	}
	if len(t.Args) == 0 {
		b.WriteString(t.Con.Name)
		return
	}
	if t.Con.Infix && len(t.Args) == 2 {
		b.WriteString("(")
		formatQ(b, set, t.Args[0], sys)
		b.WriteString(" " + t.Con.Name + " ")
		formatQ(b, set, t.Args[1], sys)
		b.WriteString(")")
		return
	}
	b.WriteString(t.Con.Name)
	b.WriteString("(")
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		formatQ(b, set, a, sys)
	}
	b.WriteString(")")
}
