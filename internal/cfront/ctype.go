package cfront

import (
	"fmt"
	"strings"
)

// TypeKind enumerates the C type constructors handled by the front end.
type TypeKind int

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
type Type struct {
	Kind  TypeKind
	Quals Quals

	// Signedness/width spelling for integer kinds ("unsigned long" etc.),
	// used only for printing.
	Spelling string

	// Elem is the pointee (TPointer) or element (TArray) type.
	Elem *Type
	// ArrayLen is the declared length, or -1 if unspecified.
	ArrayLen int64

	// Func parts.
	Ret      *Type
	Params   []Param
	Variadic bool

	// Struct/union definition.
	Struct *StructType

	// EnumTag names the enum, for printing.
	EnumTag string
	// Enumerators holds the enum's constants when this Type carries the
	// definition.
	Enumerators []Enumerator
}

// Enumerator is one enum constant.
type Enumerator struct {
	Name  string
	Value int64
}

// NewPrim builds a primitive type.
func NewPrim(kind TypeKind, spelling string) *Type {
	return &Type{Kind: kind, Spelling: spelling}
}

// NewPointer builds a pointer to elem.
func NewPointer(elem *Type) *Type { return &Type{Kind: TPointer, Elem: elem} }

// Clone deep-copies the type tree. Struct definitions are shared, not
// copied — the paper requires declarations of the same struct type to
// share field qualifiers, while typedefs are macro-expanded so that each
// use gets fresh qualifier positions.
func (t *Type) Clone() *Type { return t.clone(nil) }

// clone is Clone with the copies taken from p's slab when p is set.
func (t *Type) clone(p *Parser) *Type {
	if t == nil {
		return nil
	}
	var out *Type
	if p != nil {
		out = p.newType()
	} else {
		out = new(Type)
	}
	*out = *t
	out.Elem = t.Elem.clone(p)
	out.Ret = t.Ret.clone(p)
	if t.Params != nil {
		out.Params = make([]Param, len(t.Params))
		for i, pa := range t.Params {
			out.Params[i] = Param{Name: pa.Name, Type: pa.Type.clone(p), Pos: pa.Pos}
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
		if t.Spelling != "" {
			b.WriteString(t.Spelling)
		} else {
			b.WriteString(t.Kind.String())
		}
	case TPointer:
		fmt.Fprintf(&b, "ptr(%s)", t.Elem)
	case TArray:
		if t.ArrayLen >= 0 {
			fmt.Fprintf(&b, "array[%d](%s)", t.ArrayLen, t.Elem)
		} else {
			fmt.Fprintf(&b, "array(%s)", t.Elem)
		}
	case TFunc:
		b.WriteString("fn(")
		for i, p := range t.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.Type.String())
		}
		if t.Variadic {
			if len(t.Params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
		fmt.Fprintf(&b, ") %s", t.Ret)
	case TStruct:
		b.WriteString(t.Struct.String())
	case TEnum:
		if t.EnumTag != "" {
			b.WriteString("enum " + t.EnumTag)
		} else {
			b.WriteString("enum")
		}
	default:
		b.WriteString(t.Kind.String())
	}
	return b.String()
}
