package cfront

import (
	"fmt"
	"strings"
)

// TypeKind enumerates the C type constructors handled by the front end.
type TypeKind uint8

// Type kinds.
const (
	TVoid TypeKind = iota
	TChar
	TInt   // all integer flavours collapse here; Signedness/Width kept for printing
	TFloat // float and double
	TPointer
	TArray
	TFunc
	TStruct // struct or union, via the shared StructType
	TEnum
)

func (k TypeKind) String() string {
	switch k {
	case TVoid:
		return "void"
	case TChar:
		return "char"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TPointer:
		return "pointer"
	case TArray:
		return "array"
	case TFunc:
		return "function"
	case TStruct:
		return "struct"
	case TEnum:
		return "enum"
	default:
		return fmt.Sprintf("TypeKind(%d)", int(k))
	}
}

// Quals is the C qualifier set on one type level. The const inference
// reads and rewrites the Const flag; Volatile is parsed and preserved but
// not analyzed.
type Quals struct {
	Const    bool
	Volatile bool
	// ConstPos is where the const keyword appeared, for diagnostics.
	ConstPos Pos
}

func (q Quals) String() string {
	var b strings.Builder
	writeQuals(&b, q)
	return b.String()
}

// StructType is a struct or union definition. Declarations referring to
// the same tag share the same *StructType, which is what makes struct
// fields share their qualifier variables in the const inference (Section
// 4.2 of the paper).
type StructType struct {
	Tag      string // empty for anonymous
	Union    bool
	Fields   []Field
	Complete bool
	DefPos   Pos
	// ID distinguishes anonymous and same-tag-different-scope structs.
	ID int

	parts *typeParts // shared by the struct types naming this definition
}

// typeParts returns the parts of the struct types that name s, which
// they all share.
func (s *StructType) typeParts() *typeParts {
	if s.parts == nil {
		s.parts = newRare(rareParts{st: s})
	}
	return s.parts
}

// Field is one struct/union member.
type Field struct {
	Name string
	Type *Type
	Pos  Pos
}

func (s *StructType) String() string {
	kw := "struct"
	if s.Union {
		kw = "union"
	}
	if s.Tag != "" {
		return kw + " " + s.Tag
	}
	return fmt.Sprintf("%s <anon#%d>", kw, s.ID)
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
	Pos  Pos
}

// Type is a C type term. Types form trees except for Struct nodes, which
// share their *StructType definition.
//
// Every use of a type in the source gets records of its own, which live
// as long as the File, so the record holds only what every kind needs
// (32 bytes, two pointer words): the kind, a spelling index, the
// qualifiers and the pointee or element type. Pointers and the scalar
// kinds, about three quarters of all records, need no more. A
// function's result and parameters sit behind parts, allocated with the
// record; an array's length, a struct's definition and an enum's tag
// and constants sit one step further, in rareParts.
type Type struct {
	Kind  TypeKind
	spell spelling
	Quals Quals

	// Elem is the pointee (TPointer) or element (TArray) type.
	Elem *Type

	parts *typeParts // TFunc, TArray, TStruct and TEnum only
}

// typeParts holds a function type's result and parameters, and the
// rare parts of an array, struct or enum type. A function type's parts
// belong to it alone; those of the other kinds are never written after
// the parser makes them, so copies of a type share them.
type typeParts struct {
	ret      *Type
	params   []Param
	variadic bool
	rare     *rareParts
}

// rareParts holds what array, struct and enum types carry.
type rareParts struct {
	arrayLen    int64        // TArray: the declared length, or -1 if unspecified
	st          *StructType  // TStruct
	enumTag     string       // TEnum
	enumerators []Enumerator // TEnum, when this type carries the definition
}

// funcType is a function type record allocated with its parts.
type funcType struct {
	t     Type
	parts typeParts
}

// spelling indexes spellingNames: the base-type spellings declaration
// specifiers produce, kept for printing. An integer or char spelling is
// followed by its "signed " and "unsigned " forms.
type spelling uint8

const (
	spellNone spelling = iota
	spellVoid
	spellFloat
	spellDouble
	spellLongDouble
	spellChar
	spellInt      = spellChar + 3
	spellShort    = spellInt + 3
	spellLong     = spellShort + 3
	spellLongLong = spellLong + 3
)

var spellingNames = [...]string{
	"", "void", "float", "double", "long double",
	"char", "signed char", "unsigned char",
	"int", "signed int", "unsigned int",
	"short", "signed short", "unsigned short",
	"long", "signed long", "unsigned long",
	"long long", "signed long long", "unsigned long long",
}

// Enumerator is one enum constant.
type Enumerator struct {
	Name  string
	Value int64
}

// NewPrim builds a primitive type. The spelling must be one that C
// declaration specifiers produce, such as "unsigned long" or "double",
// or empty; NewPrim panics on any other.
func NewPrim(kind TypeKind, spell string) *Type {
	for i, s := range spellingNames {
		if s == spell {
			return &Type{Kind: kind, spell: spelling(i)}
		}
	}
	panic(fmt.Sprintf("cfront.NewPrim: no C type is spelled %q", spell))
}

// NewPointer builds a pointer to elem.
func NewPointer(elem *Type) *Type { return &Type{Kind: TPointer, Elem: elem} }

// NewFunc builds a function type returning ret. The type keeps params,
// not a copy.
func NewFunc(ret *Type, params []Param, variadic bool) *Type {
	f := new(funcType)
	f.t.Kind, f.t.parts = TFunc, &f.parts
	f.parts.ret, f.parts.params, f.parts.variadic = ret, params, variadic
	return &f.t
}

// SetFunc makes t a function type returning ret, keeping params, not a
// copy. When t already is a function type its parts are rewritten in
// place: they are its own, shared by no other type unless t itself was
// copied by value.
func (t *Type) SetFunc(ret *Type, params []Param, variadic bool) {
	if t.Kind != TFunc || t.parts == nil {
		t.Kind, t.parts = TFunc, new(typeParts)
	}
	t.parts.ret, t.parts.params, t.parts.variadic = ret, params, variadic
}

// newRare returns parts holding r, allocated together.
func newRare(r rareParts) *typeParts {
	p := &struct {
		parts typeParts
		rare  rareParts
	}{rare: r}
	p.parts.rare = &p.rare
	return &p.parts
}

// Spelling returns the type's base-type spelling ("unsigned long",
// "double"; "int" for an enum), or "" when it has none.
func (t *Type) Spelling() string { return spellingNames[t.spell] }

// Ret returns a function type's result type, nil for other kinds.
func (t *Type) Ret() *Type {
	if t.Kind != TFunc || t.parts == nil {
		return nil
	}
	return t.parts.ret
}

// Params returns a function type's parameters, nil for other kinds.
// The slice is the type's own: writing an element changes the type.
func (t *Type) Params() []Param {
	if t.Kind != TFunc || t.parts == nil {
		return nil
	}
	return t.parts.params
}

// Variadic reports whether a function type's parameter list ends in
// "...".
func (t *Type) Variadic() bool {
	return t.Kind == TFunc && t.parts != nil && t.parts.variadic
}

// rare returns the type's rare parts, nil when it has none.
func (t *Type) rare() *rareParts {
	if t.parts == nil {
		return nil
	}
	return t.parts.rare
}

// ArrayLen returns an array type's declared length, -1 if unspecified;
// it is 0 for other kinds.
func (t *Type) ArrayLen() int64 {
	if r := t.rare(); r != nil && t.Kind == TArray {
		return r.arrayLen
	}
	return 0
}

// Struct returns a struct or union type's definition, nil for other
// kinds.
func (t *Type) Struct() *StructType {
	if r := t.rare(); r != nil && t.Kind == TStruct {
		return r.st
	}
	return nil
}

// EnumTag names an enum type, "" for an anonymous enum and for other
// kinds.
func (t *Type) EnumTag() string {
	if r := t.rare(); r != nil && t.Kind == TEnum {
		return r.enumTag
	}
	return ""
}

// Enumerators returns the constants of an enum type that carries its
// definition, nil otherwise.
func (t *Type) Enumerators() []Enumerator {
	if r := t.rare(); r != nil && t.Kind == TEnum {
		return r.enumerators
	}
	return nil
}

// Clone deep-copies the type tree. Struct definitions are shared, not
// copied — the paper requires declarations of the same struct type to
// share field qualifiers, while typedefs are macro-expanded so that each
// use gets fresh qualifier positions.
func (t *Type) Clone() *Type { return t.clone(nil) }

// clone is Clone with the copies taken from p's slabs when p is set.
func (t *Type) clone(p *Parser) *Type {
	if t == nil {
		return nil
	}
	var out *Type
	switch {
	case t.Kind == TFunc && p != nil:
		out = p.newFunc(nil, false)
	case t.Kind == TFunc:
		out = NewFunc(nil, nil, false)
	case p != nil:
		out = p.newType()
	default:
		out = new(Type)
	}
	parts := out.parts
	*out = *t
	out.Elem = t.Elem.clone(p)
	if t.Kind == TFunc {
		out.parts = parts
		if tp := t.parts; tp != nil {
			parts.ret, parts.variadic = tp.ret.clone(p), tp.variadic
			if tp.params != nil {
				parts.params = make([]Param, len(tp.params))
				for i, pa := range tp.params {
					parts.params[i] = Param{Name: pa.Name, Type: pa.Type.clone(p), Pos: pa.Pos}
				}
			}
		}
	}
	return out
}

// IsInteger reports whether the type is an integer-like scalar (enums
// included).
func (t *Type) IsInteger() bool {
	return t.Kind == TInt || t.Kind == TChar || t.Kind == TEnum
}

// IsScalar reports whether the type is usable in boolean contexts.
func (t *Type) IsScalar() bool {
	return t.IsInteger() || t.Kind == TFloat || t.Kind == TPointer || t.Kind == TArray
}

// String renders the type in a readable prefix form (not C declarator
// syntax), e.g. "ptr(const char)".
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	var b strings.Builder
	if q := t.Quals.String(); q != "" {
		b.WriteString(q)
		b.WriteString(" ")
	}
	switch t.Kind {
	case TVoid, TChar, TInt, TFloat:
		if s := t.Spelling(); s != "" {
			b.WriteString(s)
		} else {
			b.WriteString(t.Kind.String())
		}
	case TPointer:
		fmt.Fprintf(&b, "ptr(%s)", t.Elem)
	case TArray:
		if n := t.ArrayLen(); n >= 0 {
			fmt.Fprintf(&b, "array[%d](%s)", n, t.Elem)
		} else {
			fmt.Fprintf(&b, "array(%s)", t.Elem)
		}
	case TFunc:
		b.WriteString("fn(")
		params := t.Params()
		for i, p := range params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.Type.String())
		}
		if t.Variadic() {
			if len(params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
		fmt.Fprintf(&b, ") %s", t.Ret())
	case TStruct:
		b.WriteString(t.Struct().String())
	case TEnum:
		if tag := t.EnumTag(); tag != "" {
			b.WriteString("enum " + tag)
		} else {
			b.WriteString("enum")
		}
	default:
		b.WriteString(t.Kind.String())
	}
	return b.String()
}
