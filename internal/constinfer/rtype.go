// Package constinfer implements the const-inference system for C of
// Section 4 of "A Theory of Type Qualifiers" (PLDI 1999): every C
// variable is an updateable reference, C types are translated to ref
// types by the θ mapping of Section 4.1, constraint generation walks
// function bodies, and the solved system classifies every "interesting"
// const position (pointer parameters and pointer results of defined
// functions) as must-const, must-not-const, or could-be-either.
//
// Two inference modes reproduce the paper's experiment: monomorphic (the
// C type system) and polymorphic (let-style qualifier polymorphism over
// the strongly-connected components of the function dependence graph,
// Definition 4 and Section 4.3).
package constinfer

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constraint"
	"repro/internal/qual"
)

// RKind enumerates the analysis type constructors.
type RKind int

// Analysis type kinds.
const (
	RLeaf   RKind = iota // int, char, float, void, enum — qualifier-opaque scalars
	RRef                 // updateable reference (every C l-value, every pointer target)
	RFunc                // function
	RStruct              // struct/union value with shared field references
)

// RType is a qualified ref type. Q is the top-level qualifier term; for
// RRef nodes it is the qualifier the const inference classifies.
type RType struct {
	Kind RKind
	Q    constraint.Term

	// Elem is the referent of an RRef.
	Elem *RType

	// Func parts; Params hold the r-value types of parameters.
	Ret      *RType
	Params   []*RType
	Variadic bool

	// Struct identity and shared field l-values.
	Struct *cfront.StructType
	Fields map[string]*RType // field name → RRef, shared per Struct

	// Spelling preserves the C scalar spelling for display.
	Spelling string

	// DeclaredConst marks a ref whose C type carried const in the source.
	DeclaredConst bool
	// ConstPos is where that const appeared.
	ConstPos cfront.Pos
}

// String renders the type with qualifier variables as κn.
func (t *RType) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case RLeaf:
		if t.Spelling != "" {
			return t.Spelling
		}
		return "scalar"
	case RRef:
		return fmt.Sprintf("%v ref(%s)", t.Q, t.Elem)
	case RFunc:
		s := "fn("
		for i, p := range t.Params {
			if i > 0 {
				s += ", "
			}
			s += p.String()
		}
		if t.Variadic {
			s += ", ..."
		}
		return s + ") " + t.Ret.String()
	case RStruct:
		return t.Struct.String()
	default:
		return fmt.Sprintf("RKind(%d)", int(t.Kind))
	}
}

// translator builds RTypes from C types, sharing struct definitions and
// pinning their qualifier variables against generalization.
type translator struct {
	sys        *constraint.System
	set        *qual.Set
	suite      *analysis.Suite
	structVals map[*cfront.StructType]*RType
	// pinned qualifier variables must never be quantified: struct fields
	// and globals are monomorphic (paper Section 4.2/4.3).
	pinned map[constraint.Var]bool
	// pinning is enabled while translating struct fields and globals.
	pinning bool
}

func newTranslator(sys *constraint.System, suite *analysis.Suite) *translator {
	return &translator{
		sys:        sys,
		set:        sys.Set(),
		suite:      suite,
		structVals: make(map[*cfront.StructType]*RType),
		pinned:     make(map[constraint.Var]bool),
	}
}

func (tr *translator) freshQ() constraint.Term {
	v := tr.sys.Fresh()
	if tr.pinning {
		tr.pinned[v] = true
	}
	return constraint.V(v)
}

// newRef builds a reference with a fresh qualifier and lets every
// analysis seed it from the source-declared C qualifiers (const seeds
// its component when the source spelled const here).
func (tr *translator) newRef(elem *RType, quals cfront.Quals) *RType {
	r := &RType{Kind: RRef, Q: tr.freshQ(), Elem: elem}
	if quals.Const {
		r.DeclaredConst = true
		r.ConstPos = quals.ConstPos
	}
	for _, b := range tr.suite.Bindings() {
		if h := b.A.Hooks.DeclQual; h != nil {
			h(tr.sys, b, r.Q, quals)
		}
	}
	return r
}

// LValue translates a declared C type to the l-value ref type of a
// variable of that type: θ(CTyp) = Q' ref(ρ) (Section 4.1). The
// outermost ref is the variable's own cell; its qualifier carries the
// top-level const of the declaration.
func (tr *translator) LValue(ct *cfront.Type) *RType {
	content := tr.RValue(ct)
	return tr.newRef(content, ct.Quals)
}

// RValue translates a C type to the r-value type of an expression of
// that type: θ' without the outermost ref. Pointers become refs to the
// translation of their pointee (carrying the pointee's qualifiers);
// arrays decay to pointers; functions translate structurally.
func (tr *translator) RValue(ct *cfront.Type) *RType {
	switch ct.Kind {
	case cfront.TPointer, cfront.TArray:
		// Pointers to functions are identified with the function type
		// itself: C function designators decay to function pointers, so
		// the two must unify at assignments and calls.
		if ct.Elem.Kind == cfront.TFunc {
			return tr.RValue(ct.Elem)
		}
		inner := tr.RValue(ct.Elem)
		return tr.newRef(inner, ct.Elem.Quals)
	case cfront.TFunc:
		f := &RType{Kind: RFunc, Q: tr.freshQ(), Variadic: ct.Variadic}
		f.Ret = tr.RValue(ct.Ret)
		for _, p := range ct.Params {
			f.Params = append(f.Params, tr.RValue(p.Type))
		}
		return f
	case cfront.TStruct:
		return tr.structVal(ct.Struct)
	default:
		return &RType{Kind: RLeaf, Q: tr.freshQ(), Spelling: ct.Spelling}
	}
}

// structVal returns the shared struct-value type for a definition,
// creating it (and its shared field references) on first use. Fields are
// pinned: all variables of the same struct type share the field
// qualifiers, only top-level qualifiers may differ (Section 4.2).
func (tr *translator) structVal(st *cfront.StructType) *RType {
	if v, ok := tr.structVals[st]; ok {
		return v
	}
	savedPinning := tr.pinning
	tr.pinning = true
	v := &RType{Kind: RStruct, Q: tr.freshQ(), Struct: st, Fields: make(map[string]*RType)}
	tr.structVals[st] = v // register before fields: self-referencing structs
	for _, f := range st.Fields {
		v.Fields[f.Name] = tr.fieldLValue(f)
	}
	tr.pinning = savedPinning
	return v
}

func (tr *translator) fieldLValue(f cfront.Field) *RType {
	content := tr.RValue(f.Type)
	return tr.newRef(content, f.Type.Quals)
}

// Field returns the shared l-value reference of a struct field, creating
// late-completed fields on demand (the struct may have been incomplete at
// first use).
func (tr *translator) Field(sv *RType, name string) (*RType, bool) {
	if f, ok := sv.Fields[name]; ok {
		return f, true
	}
	// The definition may have been completed after sv was created.
	for _, f := range sv.Struct.Fields {
		if _, ok := sv.Fields[f.Name]; !ok {
			savedPinning := tr.pinning
			tr.pinning = true
			sv.Fields[f.Name] = tr.fieldLValue(f)
			tr.pinning = savedPinning
		}
	}
	f, ok := sv.Fields[name]
	return f, ok
}

// subtype records rvalue a ≤ b. Shape mismatches (int flowing into a
// pointer, unrelated structs, casts the program performs implicitly) are
// tolerated by severing the relation, as the paper does for casts.
func (tr *translator) subtype(a, b *RType, why constraint.Reason) {
	if a == nil || b == nil || a == b {
		return
	}
	switch {
	case a.Kind == RRef && b.Kind == RRef:
		tr.sys.Add(a.Q, b.Q, why)
		// SubRef: contents are invariant.
		tr.equal(a.Elem, b.Elem, why)
	case a.Kind == RLeaf && b.Kind == RLeaf:
		tr.sys.Add(a.Q, b.Q, why)
	case a.Kind == RFunc && b.Kind == RFunc:
		tr.sys.Add(a.Q, b.Q, why)
		tr.subtype(a.Ret, b.Ret, why)
		for i := range a.Params {
			if i < len(b.Params) {
				tr.subtype(b.Params[i], a.Params[i], why) // contravariant
			}
		}
	case a.Kind == RStruct && b.Kind == RStruct && a.Struct == b.Struct:
		// Shared fields: only the (value-level) qualifier relates.
		tr.sys.Add(a.Q, b.Q, why)
	default:
		// Severed: implicit conversion between unrelated shapes.
	}
}

// equal records a = b (both directions).
func (tr *translator) equal(a, b *RType, why constraint.Reason) {
	if a == nil || b == nil || a == b {
		return
	}
	tr.subtype(a, b, why)
	tr.subtype(b, a, why)
}

// instantiate deep-copies t, renaming qualifier variables through ren
// (missing entries are allocated fresh lazily only for quantified vars —
// the caller prepares ren from the scheme's quantified set). Struct
// values are shared, never copied.
func (tr *translator) instantiate(t *RType, ren map[constraint.Var]constraint.Var, memo map[*RType]*RType) *RType {
	if t == nil {
		return nil
	}
	if t.Kind == RStruct {
		return t // shared, monomorphic
	}
	if got, ok := memo[t]; ok {
		return got
	}
	out := &RType{
		Kind: t.Kind, Q: renameTerm(t.Q, ren), Variadic: t.Variadic,
		Spelling: t.Spelling, DeclaredConst: t.DeclaredConst, ConstPos: t.ConstPos,
		Struct: t.Struct, Fields: t.Fields,
	}
	memo[t] = out
	out.Elem = tr.instantiate(t.Elem, ren, memo)
	out.Ret = tr.instantiate(t.Ret, ren, memo)
	if t.Params != nil {
		out.Params = make([]*RType, len(t.Params))
		for i, p := range t.Params {
			out.Params[i] = tr.instantiate(p, ren, memo)
		}
	}
	return out
}

func renameTerm(t constraint.Term, ren map[constraint.Var]constraint.Var) constraint.Term {
	if t.IsVar() {
		if nv, ok := ren[t.Var()]; ok {
			return constraint.V(nv)
		}
	}
	return t
}

// collectPositions walks the pointer spine of an r-value type and
// appends every reference level — the paper's "interesting" const
// positions: recall consts can only be placed on pointers, so the
// positions of int foo(int x, int *y) are exactly the contents of y.
// Struct interiors and function types are not positions of this
// parameter (struct fields are shared declarations, counted separately).
func collectPositions(t *RType, depth int, out []*posRef) []*posRef {
	if t == nil {
		return out
	}
	if t.Kind == RRef {
		out = append(out, &posRef{ref: t, depth: depth})
		return collectPositions(t.Elem, depth+1, out)
	}
	return out
}

type posRef struct {
	ref   *RType
	depth int
}
