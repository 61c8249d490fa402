package gofront

// The θ mapping for Go (the Go analogue of constinfer's rtype.go):
// every Go variable is an updateable reference Q ref(contents), and Go
// types translate structurally into qualified ref types over the same
// constraint system.
//
//	*T, []T, [N]T, chan T  →  Q ref(θ'(T))
//	map[K]V                →  Q ref(θ'(V))       (keys are not tracked)
//	func(P...) (R...)      →  Q fn(θ'(P)...) (θ'(R)...)
//	named struct           →  Q structval with one shared ref per field
//	everything else        →  Q leaf             (basic, interface, ...)
//
// The single points-to cell per reference is the paper's
// over-approximation of aliasing: all elements of a slice share one
// cell, all values reachable through a map share one cell. Struct
// fields are shared per named type, exactly as Section 4.2 shares C
// struct fields: all values of the type agree on their field
// qualifiers, only top-level qualifiers vary per value.

import (
	"go/types"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/qual"
)

type rkind int

const (
	rleaf   rkind = iota // basic, interface, type parameter, invalid
	rref                 // pointer, slice, array, map, channel — one shared cell
	rfunc                // function or method signature
	rstruct              // struct value with shared field references
)

// rtype is a qualified Go ref type. q is the top-level qualifier term;
// for rref nodes it is the qualifier the const inference classifies.
type rtype struct {
	kind rkind
	q    constraint.Term

	// elem is the referent of an rref.
	elem *rtype

	// Function parts. params holds the r-value types of parameters, the
	// receiver folded in at index 0 for methods; rets holds one entry
	// per result.
	params   []*rtype
	rets     []*rtype
	variadic bool

	// Struct identity and shared field l-values.
	fields map[string]*rtype

	// spelling preserves the Go type spelling for display.
	spelling string
}

// translator builds rtypes from go/types types, sharing one struct
// value per named type.
type translator struct {
	sys   *constraint.System
	set   *qual.Set
	suite *analysis.Suite

	// structVals shares one struct value per named (or aliased-named)
	// struct type, keyed by the canonical *types.Named identity.
	structVals map[*types.Named]*rtype
	// visiting breaks recursion through non-struct named types
	// (self-referential types whose cycle does not pass through a
	// registered struct value).
	visiting map[types.Type]bool
}

func newGoTranslator(sys *constraint.System, suite *analysis.Suite) *translator {
	return &translator{
		sys:        sys,
		set:        sys.Set(),
		suite:      suite,
		structVals: map[*types.Named]*rtype{},
		visiting:   map[types.Type]bool{},
	}
}

func (tr *translator) freshQ() constraint.Term { return constraint.V(tr.sys.Fresh()) }

// newRef wraps contents in a reference with a fresh qualifier. Go has
// no source-spelled qualifiers, so every analysis's DeclQual hook sees
// no declared const (nothing seeds; taint and const both infer).
func (tr *translator) newRef(elem *rtype) *rtype {
	r := &rtype{kind: rref, q: tr.freshQ(), elem: elem}
	for _, b := range tr.suite.Bindings() {
		if h := b.A.Hooks.DeclQual; h != nil {
			h(tr.sys, b, r.q, false, constraint.Pos{})
		}
	}
	return r
}

func (tr *translator) leaf(spelling string) *rtype {
	return &rtype{kind: rleaf, q: tr.freshQ(), spelling: spelling}
}

// lvalue is θ: the cell of a variable of type t — a reference to the
// r-value translation.
func (tr *translator) lvalue(t types.Type) *rtype {
	return tr.newRef(tr.rvalue(t))
}

// rvalue is θ': the r-value translation of a Go type.
func (tr *translator) rvalue(t types.Type) *rtype {
	if t == nil {
		return tr.leaf("invalid")
	}
	if tr.visiting[t] {
		// A recursive type whose cycle avoids every struct value (e.g.
		// `type list *list`): sever the back edge with an opaque leaf,
		// as the C front end severs casts.
		return tr.leaf(t.String())
	}
	tr.visiting[t] = true
	defer delete(tr.visiting, t)

	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return tr.newRef(tr.rvalue(u.Elem()))
	case *types.Slice:
		return tr.newRef(tr.rvalue(u.Elem()))
	case *types.Array:
		return tr.newRef(tr.rvalue(u.Elem()))
	case *types.Map:
		return tr.newRef(tr.rvalue(u.Elem()))
	case *types.Chan:
		return tr.newRef(tr.rvalue(u.Elem()))
	case *types.Signature:
		return tr.signature(u)
	case *types.Struct:
		if named := canonicalNamed(t); named != nil {
			return tr.structVal(named, u)
		}
		// Unnamed struct literal type: a private value, fields not
		// shared across occurrences.
		return tr.newStructVal(nil, u)
	default:
		// Basic, interface, tuple, type parameter, invalid: a
		// qualifier-opaque scalar. The qualifier still flows (a tainted
		// string is a tainted leaf); the structure does not.
		return tr.leaf(t.String())
	}
}

// signature translates a function type, folding the receiver (when
// present) into params[0] so method calls constrain their receiver like
// an ordinary first argument.
func (tr *translator) signature(sig *types.Signature) *rtype {
	f := &rtype{kind: rfunc, q: tr.freshQ(), variadic: sig.Variadic()}
	if recv := sig.Recv(); recv != nil {
		f.params = append(f.params, tr.rvalue(recv.Type()))
	}
	for i := 0; i < sig.Params().Len(); i++ {
		f.params = append(f.params, tr.rvalue(sig.Params().At(i).Type()))
	}
	for i := 0; i < sig.Results().Len(); i++ {
		f.rets = append(f.rets, tr.rvalue(sig.Results().At(i).Type()))
	}
	return f
}

// canonicalNamed unwraps aliases to the named type behind t, or nil.
func canonicalNamed(t types.Type) *types.Named {
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

// structVal returns the shared struct value of a named struct type,
// creating it (and its shared field references) on first use. The value
// is registered before its fields are translated, so self-referential
// structs terminate.
func (tr *translator) structVal(named *types.Named, u *types.Struct) *rtype {
	if v, ok := tr.structVals[named]; ok {
		return v
	}
	return tr.newStructVal(named, u)
}

func (tr *translator) newStructVal(named *types.Named, u *types.Struct) *rtype {
	v := &rtype{kind: rstruct, q: tr.freshQ(), fields: map[string]*rtype{}, spelling: u.String()}
	if named != nil {
		v.spelling = named.Obj().Name()
		tr.structVals[named] = v // register before fields: recursive structs
	}
	for i := 0; i < u.NumFields(); i++ {
		f := u.Field(i)
		v.fields[f.Name()] = tr.newRef(tr.rvalue(f.Type()))
	}
	return v
}

// subtype records r-value a ≤ b. Shape mismatches (a pointer boxed into
// an interface leaf, unrelated structs) sever the relation after
// propagating the top-level qualifier — the treatment the paper gives C
// casts.
func (tr *translator) subtype(a, b *rtype, why constraint.Reason) {
	if a == nil || b == nil || a == b {
		return
	}
	switch {
	case a.kind == rref && b.kind == rref:
		tr.sys.Add(a.q, b.q, why)
		// SubRef: contents are invariant.
		tr.equal(a.elem, b.elem, why)
	case a.kind == rfunc && b.kind == rfunc:
		tr.sys.Add(a.q, b.q, why)
		for i := range a.rets {
			if i < len(b.rets) {
				tr.subtype(a.rets[i], b.rets[i], why)
			}
		}
		for i := range a.params {
			if i < len(b.params) {
				tr.subtype(b.params[i], a.params[i], why) // contravariant
			}
		}
	case a.kind == rstruct && b.kind == rstruct && sameStruct(a, b):
		// Shared fields: only the value-level qualifier relates.
		tr.sys.Add(a.q, b.q, why)
	default:
		// Severed shapes still carry their top-level qualifier: a
		// tainted slice boxed into an interface yields a tainted value.
		tr.sys.Add(a.q, b.q, why)
	}
}

// sameStruct reports whether two struct values share their field cells.
func sameStruct(a, b *rtype) bool {
	if len(a.fields) != len(b.fields) {
		return false
	}
	for name, f := range a.fields {
		if b.fields[name] != f {
			return false
		}
	}
	return true
}

// equal records a = b (both directions).
func (tr *translator) equal(a, b *rtype, why constraint.Reason) {
	if a == nil || b == nil || a == b {
		return
	}
	tr.subtype(a, b, why)
	tr.subtype(b, a, why)
}

// refPositions walks the reference spine of an r-value and returns
// every ref level with its depth — the interesting const positions of a
// parameter, and the levels the conservative library rule bounds.
func refPositions(t *rtype, depth int, out []refPos) []refPos {
	if t == nil || t.kind != rref {
		return out
	}
	out = append(out, refPos{ref: t, depth: depth})
	return refPositions(t.elem, depth+1, out)
}

type refPos struct {
	ref   *rtype
	depth int
}
