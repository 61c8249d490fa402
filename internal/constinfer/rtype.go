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
type RKind uint8

// Analysis type kinds.
const (
	RLeaf   RKind = iota // int, char, float, void, enum — qualifier-opaque scalars
	RRef                 // updateable reference (every C l-value, every pointer target)
	RFunc                // function
	RStruct              // struct/union value with shared field references
)

// RType is a qualified ref type. Q is the top-level qualifier term; for
// RRef nodes it is the qualifier the const inference classifies.
//
// Constraint generation makes one RType per l-value, literal and
// intermediate value, so the record holds only what every kind needs
// (48 bytes, one allocation size class). A function's result and
// parameters sit behind fn, allocated with the RType itself; a leaf's
// spelling and a struct value's definition and fields sit behind
// shared, one record per spelling or per struct.
type RType struct {
	Q constraint.Term

	// Elem is the referent of an RRef.
	Elem *RType

	fn     *funcParts  // RFunc only
	shared *sharedPart // RLeaf and RStruct only

	Kind RKind

	// Variadic marks an RFunc whose parameter list ends in "...".
	Variadic bool

	// DeclaredConst marks a ref whose C type carried const in the source.
	DeclaredConst bool
}

// funcParts holds the result and the parameter r-value types of an
// RFunc.
type funcParts struct {
	ret    *RType
	params []*RType
}

// sharedPart is the part of a leaf or struct value that many RTypes
// share: a leaf's C spelling, kept for display, or a struct value's
// definition and its field references. Leaf records are never written
// after they are made, so the package-level ones serve concurrent
// analyses; struct records belong to one translator.
type sharedPart struct {
	spelling string
	st       *cfront.StructType
	fields   map[string]*RType // field name → RRef, shared per struct
}

// Leaf records for the spellings constraint generation gives the values
// it makes up (literals, comparisons, untracked expressions).
var (
	intLeaf  = &sharedPart{spelling: "int"}
	charLeaf = &sharedPart{spelling: "char"}
)

// newFunc returns an RFunc with room for n parameters; its funcParts
// share the RType's allocation.
func newFunc(q constraint.Term, variadic bool, n int) *RType {
	f := &struct {
		t  RType
		fn funcParts
	}{t: RType{Kind: RFunc, Q: q, Variadic: variadic}}
	if n > 0 {
		f.fn.params = make([]*RType, n)
	}
	f.t.fn = &f.fn
	return &f.t
}

// Ret returns the result type of an RFunc, nil for other kinds.
func (t *RType) Ret() *RType {
	if t.fn == nil {
		return nil
	}
	return t.fn.ret
}

// Params returns the parameter r-value types of an RFunc, nil for
// other kinds.
func (t *RType) Params() []*RType {
	if t.fn == nil {
		return nil
	}
	return t.fn.params
}

// String renders the type with qualifier variables as κn.
func (t *RType) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case RLeaf:
		if t.shared != nil && t.shared.spelling != "" {
			return t.shared.spelling
		}
		return "scalar"
	case RRef:
		return fmt.Sprintf("%v ref(%s)", t.Q, t.Elem)
	case RFunc:
		s := "fn("
		for i, p := range t.Params() {
			if i > 0 {
				s += ", "
			}
			s += p.String()
		}
		if t.Variadic {
			s += ", ..."
		}
		return s + ") " + t.Ret().String()
	case RStruct:
		return t.shared.st.String()
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
	// leaves holds one leaf record per spelling the translated C types
	// use.
	leaves map[string]*sharedPart
	// pins marks, by variable, the pinned qualifier variables, which
	// must never be quantified: struct fields and globals are
	// monomorphic (paper Section 4.2/4.3). It ends at the last pinned
	// variable; see pinned.
	pins []bool
	// pinning is enabled while translating struct fields and globals.
	pinning bool
	// file names the translation unit whose declarations are being
	// translated or walked; it places the unit's in-file positions.
	file string
	// rtypes holds the chunk rtype hands RTypes out of.
	rtypes []RType
}

// RType chunks start at firstRChunk records and double up to
// maxRChunk (48 KB), so a small program takes a few small chunks and a
// large one wastes at most one chunk's tail.
const (
	firstRChunk = 16
	maxRChunk   = 1024
)

// rtype returns a copy of t from the translator's current chunk. Every
// RType the analysis makes but newFunc's comes from here: a chunk lives
// as long as any record in it, and the records of one analysis share
// its lifetime.
func (tr *translator) rtype(t RType) *RType {
	if len(tr.rtypes) == cap(tr.rtypes) {
		tr.rtypes = make([]RType, 0, min(max(2*cap(tr.rtypes), firstRChunk), maxRChunk))
	}
	tr.rtypes = append(tr.rtypes, t)
	return &tr.rtypes[len(tr.rtypes)-1]
}

func newTranslator(sys *constraint.System, suite *analysis.Suite) *translator {
	return &translator{
		sys:        sys,
		set:        sys.Set(),
		suite:      suite,
		structVals: make(map[*cfront.StructType]*RType),
		leaves:     make(map[string]*sharedPart),
	}
}

func (tr *translator) freshQ() constraint.Term {
	v := tr.sys.Fresh()
	if tr.pinning {
		if n := int(v) + 1; n > len(tr.pins) {
			tr.pins = append(tr.pins, make([]bool, n-len(tr.pins))...)
		}
		tr.pins[v] = true
	}
	return constraint.V(v)
}

// pinned reports whether v is pinned against generalization.
func (tr *translator) pinned(v constraint.Var) bool {
	return int(v) < len(tr.pins) && tr.pins[v]
}

// newRef builds a reference with a fresh qualifier and lets every
// analysis seed it from the source-declared C qualifiers (const seeds
// its component when the source spelled const here).
func (tr *translator) newRef(elem *RType, quals cfront.Quals) *RType {
	r := tr.rtype(RType{Kind: RRef, Q: tr.freshQ(), Elem: elem, DeclaredConst: quals.Const})
	var constPos constraint.Pos
	if quals.Const {
		constPos = tr.pos(quals.ConstPos)
	}
	tr.suite.DeclQual(tr.sys, r.Q, quals.Const, constPos)
	return r
}

// filePos places an in-file position in the named translation unit.
func filePos(file string, p cfront.Pos) constraint.Pos {
	return constraint.Pos{File: file, Line: p.Line, Col: p.Col}
}

// pos places an in-file position of the current translation unit.
func (tr *translator) pos(p cfront.Pos) constraint.Pos { return filePos(tr.file, p) }

// why records provenance at an in-file position of the current unit.
func (tr *translator) why(p cfront.Pos, msg string) constraint.Reason {
	return constraint.Reason{Pos: tr.pos(p), Msg: msg}
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
		params := ct.Params()
		f := newFunc(tr.freshQ(), ct.Variadic(), len(params))
		f.fn.ret = tr.RValue(ct.Ret())
		for i, p := range params {
			f.fn.params[i] = tr.RValue(p.Type)
		}
		return f
	case cfront.TStruct:
		return tr.structVal(ct.Struct())
	default:
		return tr.rtype(RType{Kind: RLeaf, Q: tr.freshQ(), shared: tr.leaf(ct.Spelling())})
	}
}

// leaf returns the leaf record of a C scalar spelling.
func (tr *translator) leaf(spelling string) *sharedPart {
	switch spelling {
	case "int":
		return intLeaf
	case "char":
		return charLeaf
	}
	l, ok := tr.leaves[spelling]
	if !ok {
		l = &sharedPart{spelling: spelling}
		tr.leaves[spelling] = l
	}
	return l
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
	sp := &sharedPart{st: st, fields: make(map[string]*RType, len(st.Fields))}
	v := tr.rtype(RType{Kind: RStruct, Q: tr.freshQ(), shared: sp})
	tr.structVals[st] = v // register before fields: self-referencing structs
	for _, f := range st.Fields {
		sp.fields[f.Name] = tr.fieldLValue(f)
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
	sp := sv.shared
	if f, ok := sp.fields[name]; ok {
		return f, true
	}
	// The definition may have been completed after sv was created.
	for _, f := range sp.st.Fields {
		if _, ok := sp.fields[f.Name]; !ok {
			savedPinning := tr.pinning
			tr.pinning = true
			sp.fields[f.Name] = tr.fieldLValue(f)
			tr.pinning = savedPinning
		}
	}
	f, ok := sp.fields[name]
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
		tr.subtype(a.fn.ret, b.fn.ret, why)
		for i, ap := range a.fn.params {
			if i < len(b.fn.params) {
				tr.subtype(b.fn.params[i], ap, why) // contravariant
			}
		}
	case a.Kind == RStruct && b.Kind == RStruct && a.shared == b.shared:
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
// values are shared, never copied. The copy relies on a signature being
// a tree below its structs: no node is reached twice.
func (tr *translator) instantiate(t *RType, ren map[constraint.Var]constraint.Var) *RType {
	if t == nil {
		return nil
	}
	if t.Kind == RStruct {
		return t // shared, monomorphic
	}
	q := renameTerm(t.Q, ren)
	if t.Kind == RFunc {
		out := newFunc(q, t.Variadic, len(t.fn.params))
		out.fn.ret = tr.instantiate(t.fn.ret, ren)
		for i, p := range t.fn.params {
			out.fn.params[i] = tr.instantiate(p, ren)
		}
		return out
	}
	return tr.rtype(RType{Kind: t.Kind, Q: q, DeclaredConst: t.DeclaredConst, shared: t.shared, Elem: tr.instantiate(t.Elem, ren)})
}

func renameTerm(t constraint.Term, ren map[constraint.Var]constraint.Var) constraint.Term {
	if t.IsVar() {
		if nv, ok := ren[t.Var()]; ok {
			return constraint.V(nv)
		}
	}
	return t
}

// isRef reports whether t is a reference level. The reference levels
// along the pointer spine of a parameter or result type, from the top
// down to the first non-reference, are the paper's "interesting" const
// positions: recall consts can only be placed on pointers, so the
// positions of int foo(int x, int *y) are exactly the contents of y.
// Struct interiors and function types are not positions of this
// parameter (struct fields are shared declarations, counted separately).
func isRef(t *RType) bool { return t != nil && t.Kind == RRef }
