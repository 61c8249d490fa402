package cfront

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for the C subset. It maintains a
// typedef table (needed to disambiguate declarations from expressions), a
// struct/union tag registry (shared definitions give shared field
// qualifiers), and an enum-constant table.
type Parser struct {
	lex Lexer
	tok Token

	// ahead is the token after tok once peek has lexed it, aheadErr the
	// error lexing it gave; next takes them instead of lexing again.
	ahead    Token
	aheadErr error
	hasAhead bool

	typedefs map[string]*Type
	tags     map[string]*StructType
	enums    map[string]int64
	anonID   int

	depth int // current grammar nesting; see enter

	// stmts, args and params are scratch stacks: a block's statements,
	// a call's arguments and a parameter list collect on them and are
	// copied out once, into an exactly sized slice (see popStack).
	stmts  []Stmt
	args   []Expr
	params []Param

	slabs
}

// maxDepth bounds the nesting of the recursive grammar: parenthesised,
// unary and cast expressions, assignment and conditional chains,
// statements, declarators and initializers each add one level. Real C
// stays far below it (clang's default bracket limit is 256); without
// it, an input such as 200k nested '(' overflows the goroutine stack,
// a fatal error that no recover can catch.
const maxDepth = 10000

// enter counts one level of grammar nesting, failing with a syntax
// error past maxDepth. Every successful enter is paired with a leave.
func (p *Parser) enter() error {
	if p.depth >= maxDepth {
		return p.errf("nesting deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a complete translation unit.
func Parse(file, src string) (*File, error) {
	p := newParser(file, src)
	if err := p.next(); err != nil {
		return nil, err
	}
	f := &File{Name: file}
	for p.tok.Kind != EOF {
		var err error
		if f.Decls, err = p.parseExternalDecl(f.Decls); err != nil {
			return nil, err
		}
	}
	f.EnumConsts = p.enums
	return f, nil
}

// newParser returns a parser over src, before its first token.
func newParser(file, src string) *Parser {
	return &Parser{
		lex:      Lexer{src: src, file: file, line: 1, col: 1},
		typedefs: make(map[string]*Type),
		tags:     make(map[string]*StructType),
		enums:    make(map[string]int64),
	}
}

// EnumConstants exposes the enum constants seen while parsing, for
// clients that resolve identifiers.
func (p *Parser) EnumConstants() map[string]int64 { return p.enums }

func (p *Parser) next() error {
	var t Token
	var err error
	if p.hasAhead {
		t, err, p.hasAhead = p.ahead, p.aheadErr, false
	} else {
		t, err = p.lex.Next()
	}
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, p.lex.errAt(p.tok.Pos, fmt.Sprintf("expected %s, found %s %q", k, p.tok.Kind, p.tok.Text))
	}
	t := p.tok
	return t, p.next()
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return p.lex.errAt(p.tok.Pos, fmt.Sprintf(format, args...))
}

// peek returns the token after the current one without consuming it;
// next takes it from there. A lexical error there reads as EOF, and
// next returns the error when it consumes the token.
func (p *Parser) peek() Token {
	if !p.hasAhead {
		p.ahead, p.aheadErr = p.lex.Next()
		p.hasAhead = true
	}
	if p.aheadErr != nil {
		return Token{Kind: EOF}
	}
	return p.ahead
}

// isTypeStart reports whether the current token can begin
// declaration-specifiers.
func (p *Parser) isTypeStart() bool {
	switch p.tok.Kind {
	case kwVoid, kwChar, kwInt, kwLong, kwShort, kwSigned, kwUnsigned,
		kwFloat, kwDouble, kwConst, kwVolatile, kwStruct, kwUnion, kwEnum,
		kwTypedef, kwExtern, kwStatic, kwAuto, kwRegister:
		return true
	case IDENT:
		_, ok := p.typedefs[p.tok.Text]
		return ok
	default:
		return false
	}
}

// ---------------------------------------------------------------------
// Declarations

type declSpecs struct {
	storage StorageClass
	base    *Type
	pos     Pos
	taken   bool // base belongs to a declarator; see take
}

// take returns the base type for the next declarator in a list: base
// itself the first time, a deep copy of it for every later declarator
// (int *a, b;), so no two declarators share a qualifier level. Nothing
// writes to a declared type while its declaration is parsed, so the copy
// is taken from a pristine base.
func (ds *declSpecs) take(p *Parser) *Type {
	if !ds.taken {
		ds.taken = true
		return ds.base
	}
	return ds.base.clone(p)
}

// parseDeclSpecs parses storage classes, qualifiers and type specifiers.
func (p *Parser) parseDeclSpecs() (declSpecs, error) {
	ds := declSpecs{pos: p.tok.Pos}
	var quals Quals
	var (
		sawSigned, sawUnsigned bool
		longs, shorts          int
		baseKw                 TokKind = -1
	)
	sawSpecifier := func() bool {
		return baseKw >= 0 || sawSigned || sawUnsigned || longs > 0 || shorts > 0 || ds.base != nil
	}
	for {
		switch p.tok.Kind {
		case kwTypedef, kwExtern, kwStatic, kwAuto, kwRegister:
			if ds.storage != SCNone {
				return declSpecs{}, p.errf("multiple storage classes")
			}
			switch p.tok.Kind {
			case kwTypedef:
				ds.storage = SCTypedef
			case kwExtern:
				ds.storage = SCExtern
			case kwStatic:
				ds.storage = SCStatic
			case kwAuto:
				ds.storage = SCAuto
			case kwRegister:
				ds.storage = SCRegister
			}
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwConst:
			quals.Const = true
			quals.ConstPos = p.tok.Pos
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwVolatile:
			quals.Volatile = true
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwSigned:
			sawSigned = true
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwUnsigned:
			sawUnsigned = true
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwLong:
			longs++
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwShort:
			shorts++
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwVoid, kwChar, kwInt, kwFloat, kwDouble:
			if baseKw >= 0 || ds.base != nil {
				return declSpecs{}, p.errf("multiple type specifiers")
			}
			baseKw = p.tok.Kind
			if err := p.next(); err != nil {
				return declSpecs{}, err
			}
		case kwStruct, kwUnion:
			if sawSpecifier() {
				return declSpecs{}, p.errf("struct specifier after another type specifier")
			}
			st, err := p.parseStructSpecifier(p.tok.Kind == kwUnion)
			if err != nil {
				return declSpecs{}, err
			}
			ds.base = p.newType()
			ds.base.Kind, ds.base.parts = TStruct, st.typeParts()
		case kwEnum:
			if sawSpecifier() {
				return declSpecs{}, p.errf("enum specifier after another type specifier")
			}
			et, err := p.parseEnumSpecifier()
			if err != nil {
				return declSpecs{}, err
			}
			ds.base = et
		case IDENT:
			// A typedef name acts as a type specifier only when no
			// specifier has been seen yet.
			if td, ok := p.typedefs[p.tok.Text]; ok && !sawSpecifier() {
				// Macro-expand the typedef: deep-copy so each use has
				// independent qualifier positions (paper Section 4.2).
				ds.base = td.clone(p)
				if err := p.next(); err != nil {
					return declSpecs{}, err
				}
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	if ds.base == nil {
		spell, kind, ok := intSpelling(baseKw, sawSigned, sawUnsigned, longs, shorts)
		if !ok {
			if !sawSpecifier() && !quals.Const && !quals.Volatile && ds.storage == SCNone {
				return declSpecs{}, p.errf("expected declaration, found %s %q", p.tok.Kind, p.tok.Text)
			}
			// Implicit int (K&R style "const x;" or bare storage class).
			spell, kind = spellInt, TInt
		}
		ds.base = p.newType()
		ds.base.Kind, ds.base.spell = kind, spell
	}
	ds.base.Quals.Const = ds.base.Quals.Const || quals.Const
	ds.base.Quals.Volatile = ds.base.Quals.Volatile || quals.Volatile
	if quals.Const {
		ds.base.Quals.ConstPos = quals.ConstPos
	}
	return ds, nil
}

// intSpelling returns the spelling and kind that a declaration's type
// keywords (base is -1 when there is none) and sign and length
// modifiers make, and false when they name no type.
func intSpelling(base TokKind, signed, unsigned bool, longs, shorts int) (spelling, TypeKind, bool) {
	var sign spelling // the offset of the "signed " and "unsigned " forms
	if unsigned {
		sign = 2
	} else if signed {
		sign = 1
	}
	switch base {
	case kwVoid:
		return spellVoid, TVoid, true
	case kwChar:
		return spellChar + sign, TChar, true
	case kwFloat:
		return spellFloat, TFloat, true
	case kwDouble:
		if longs > 0 {
			return spellLongDouble, TFloat, true
		}
		return spellDouble, TFloat, true
	case kwInt, TokKind(-1):
		if base == TokKind(-1) && !signed && !unsigned && longs == 0 && shorts == 0 {
			return spellNone, 0, false
		}
		switch {
		case longs >= 2:
			return spellLongLong + sign, TInt, true
		case longs == 1:
			return spellLong + sign, TInt, true
		case shorts >= 1:
			return spellShort + sign, TInt, true
		default:
			return spellInt + sign, TInt, true
		}
	default:
		return spellNone, 0, false
	}
}

func (p *Parser) parseStructSpecifier(isUnion bool) (*StructType, error) {
	if err := p.next(); err != nil { // struct/union keyword
		return nil, err
	}
	tag := ""
	defPos := p.tok.Pos
	if p.tok.Kind == IDENT {
		tag = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	var st *StructType
	if tag != "" {
		if existing, ok := p.tags[tag]; ok && existing.Union == isUnion {
			st = existing
		}
	}
	if st == nil {
		p.anonID++
		st = &StructType{Tag: tag, Union: isUnion, DefPos: defPos, ID: p.anonID}
		if tag != "" {
			p.tags[tag] = st
		}
	}
	if p.tok.Kind != LBRACE {
		if tag == "" {
			return nil, p.errf("anonymous struct without a body")
		}
		return st, nil
	}
	if st.Complete {
		return nil, p.lex.errAt(defPos, fmt.Sprintf("redefinition of %s", st))
	}
	if err := p.next(); err != nil { // {
		return nil, err
	}
	for p.tok.Kind != RBRACE {
		ds, err := p.parseDeclSpecs()
		if err != nil {
			return nil, err
		}
		for {
			name, typ, namePos, err := p.parseDeclarator(ds.take(p), false)
			if err != nil {
				return nil, err
			}
			if p.tok.Kind == COLON { // bit-field
				if err := p.next(); err != nil {
					return nil, err
				}
				if _, err := p.parseConditional(); err != nil {
					return nil, err
				}
			}
			if name == "" {
				return nil, p.errf("expected field name")
			}
			st.Fields = append(st.Fields, Field{Name: name, Type: typ, Pos: namePos})
			if p.tok.Kind != COMMA {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	if err := p.next(); err != nil { // }
		return nil, err
	}
	st.Complete = true
	return st, nil
}

func (p *Parser) parseEnumSpecifier() (*Type, error) {
	if err := p.next(); err != nil { // enum
		return nil, err
	}
	tag := ""
	if p.tok.Kind == IDENT {
		tag = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	t := p.newType()
	t.Kind, t.spell, t.parts = TEnum, spellInt, newRare(rareParts{enumTag: tag})
	if p.tok.Kind != LBRACE {
		if tag == "" {
			return nil, p.errf("anonymous enum without a body")
		}
		return t, nil
	}
	if err := p.next(); err != nil { // {
		return nil, err
	}
	var val int64
	for p.tok.Kind != RBRACE {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.tok.Kind == ASSIGN {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.parseConditional()
			if err != nil {
				return nil, err
			}
			if v, ok := p.evalConst(e); ok {
				val = v
			}
		}
		p.enums[name.Text] = val
		r := t.parts.rare
		r.enumerators = append(r.enumerators, Enumerator{Name: name.Text, Value: val})
		val++
		if p.tok.Kind != COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RBRACE); err != nil {
		return nil, err
	}
	return t, nil
}

// declarator is one parsed declarator before its base type is known:
// the pointer levels, the array and parameter-list suffixes, and any
// parenthesized declarator nested inside it, as in int (*f)(void).
type declarator struct {
	name string
	pos  Pos
	// ptrs holds the qualifiers of each '*', in source order.
	ptrs []Quals
	// suffixes holds array and function shells, in source order; apply
	// fills in their element or result type.
	suffixes []*Type
	inner    *declarator
}

// apply completes the declarator over base: pointers first, then the
// suffixes right to left (the one closest to the name binds tightest),
// then the nested declarator.
func (d *declarator) apply(p *Parser, base *Type) *Type {
	t := base
	for _, q := range d.ptrs {
		t = p.pointer(t, q)
	}
	for i := len(d.suffixes) - 1; i >= 0; i-- {
		s := d.suffixes[i]
		if s.Kind == TArray {
			s.Elem = t
		} else {
			s.parts.ret = t
		}
		t = s
	}
	if d.inner != nil {
		return d.inner.apply(p, t)
	}
	return t
}

// parseDeclarator parses a (possibly abstract when allowAbstract) C
// declarator applied to the base type; it returns the declared name (""
// for abstract), the complete type, and the name's position.
func (p *Parser) parseDeclarator(base *Type, allowAbstract bool) (string, *Type, Pos, error) {
	d, err := p.parseDeclaratorParts(allowAbstract)
	if err != nil {
		return "", nil, Pos{}, err
	}
	return d.name, d.apply(p, base), d.pos, nil
}

// parseDeclaratorParts parses a declarator without applying it. A
// parenthesized declarator nested inside may always be abstract.
func (p *Parser) parseDeclaratorParts(allowAbstract bool) (declarator, error) {
	var d declarator
	if err := p.enter(); err != nil {
		return d, err
	}
	defer p.leave()
	// Each '*' may be followed by qualifiers that attach to that level.
	for p.tok.Kind == STAR {
		if err := p.next(); err != nil {
			return d, err
		}
		var q Quals
		for p.tok.Kind == kwConst || p.tok.Kind == kwVolatile {
			if p.tok.Kind == kwConst {
				q.Const = true
				q.ConstPos = p.tok.Pos
			} else {
				q.Volatile = true
			}
			if err := p.next(); err != nil {
				return d, err
			}
		}
		d.ptrs = append(d.ptrs, q)
	}

	switch {
	case p.tok.Kind == IDENT:
		d.name, d.pos = p.tok.Text, p.tok.Pos
		if err := p.next(); err != nil {
			return d, err
		}
	case p.tok.Kind == LPAREN && p.parenStartsDeclarator():
		if err := p.next(); err != nil {
			return d, err
		}
		inner, err := p.parseDeclaratorParts(true)
		if err != nil {
			return d, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return d, err
		}
		d.name, d.pos, d.inner = inner.name, inner.pos, &inner
	case !allowAbstract:
		return d, p.errf("expected declarator, found %s %q", p.tok.Kind, p.tok.Text)
	}

	for {
		switch p.tok.Kind {
		case LBRACK:
			if err := p.next(); err != nil {
				return d, err
			}
			length := int64(-1)
			if p.tok.Kind != RBRACK {
				e, err := p.parseAssignment()
				if err != nil {
					return d, err
				}
				if v, ok := p.evalConst(e); ok {
					length = v
				}
			}
			if _, err := p.expect(RBRACK); err != nil {
				return d, err
			}
			s := p.newType()
			s.Kind, s.parts = TArray, newRare(rareParts{arrayLen: length})
			d.suffixes = append(d.suffixes, s)
		case LPAREN:
			if err := p.next(); err != nil {
				return d, err
			}
			params, variadic, err := p.parseParamList()
			if err != nil {
				return d, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
			d.suffixes = append(d.suffixes, p.newFunc(params, variadic))
		default:
			return d, nil
		}
	}
}

// parenStartsDeclarator decides whether '(' begins a nested declarator
// (true) or a parameter list of an abstract declarator (false): "(*" and
// "((" always begin one, "(name" unless name is a typedef.
func (p *Parser) parenStartsDeclarator() bool {
	switch t := p.peek(); t.Kind {
	case STAR, LPAREN:
		return true
	case IDENT:
		_, isType := p.typedefs[t.Text]
		return !isType
	default:
		return false
	}
}

func (p *Parser) parseParamList() ([]Param, bool, error) {
	if p.tok.Kind == RPAREN {
		return nil, false, nil // ()
	}
	if p.tok.Kind == kwVoid && p.peek().Kind == RPAREN {
		return nil, false, p.next() // (void)
	}
	base := len(p.params)
	variadic := false
	for {
		if p.tok.Kind == ELLIPSIS {
			variadic = true
			if err := p.next(); err != nil {
				return nil, false, err
			}
			break
		}
		ds, err := p.parseDeclSpecs()
		if err != nil {
			return nil, false, err
		}
		name, typ, namePos, err := p.parseDeclarator(ds.base, true)
		if err != nil {
			return nil, false, err
		}
		// Arrays and functions decay to pointers in parameter position.
		typ = p.decay(typ)
		p.params = append(p.params, Param{Name: name, Type: typ, Pos: namePos})
		if p.tok.Kind != COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, false, err
		}
	}
	return popStack(&p.params, base), variadic, nil
}

// decay converts array-of-T to pointer-to-T and function types to
// pointers-to-function in parameter position.
func (p *Parser) decay(t *Type) *Type {
	switch t.Kind {
	case TArray:
		return p.pointer(t.Elem, t.Quals)
	case TFunc:
		return p.pointer(t, Quals{})
	default:
		return t
	}
}

// newType returns a zeroed Type from the parser's slab.
func (p *Parser) newType() *Type { return p.types.alloc(&p.lex, typeBytes) }

// newFunc returns a function type with the given parameters and no
// result yet, allocated with its parts from the parser's slab.
func (p *Parser) newFunc(params []Param, variadic bool) *Type {
	f := p.funcs.alloc(&p.lex, funcBytes)
	f.t.Kind, f.t.parts = TFunc, &f.parts
	f.parts.params, f.parts.variadic = params, variadic
	return &f.t
}

// pointer returns a pointer to elem with the given qualifiers, from the
// parser's slab.
func (p *Parser) pointer(elem *Type, q Quals) *Type {
	t := p.newType()
	t.Kind, t.Elem, t.Quals = TPointer, elem, q
	return t
}

// parseExternalDecl parses one top-level declaration, which may expand to
// several Decl nodes (comma-separated declarators), and appends them to
// decls.
func (p *Parser) parseExternalDecl(decls []Decl) ([]Decl, error) {
	ds, err := p.parseDeclSpecs()
	if err != nil {
		return nil, err
	}
	// Tag-only declaration: "struct s { ... };"
	if p.tok.Kind == SEMI {
		if ds.storage == SCTypedef {
			return nil, p.errf("typedef without a declarator")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return append(decls, &TagDecl{Type: ds.base, Pos: ds.pos}), nil
	}

	first := true
	for {
		name, typ, namePos, err := p.parseDeclarator(ds.take(p), false)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("expected declared name")
		}
		if ds.storage == SCTypedef {
			p.typedefs[name] = typ
			decls = append(decls, &TypedefDecl{Name: name, Type: typ, Pos: namePos})
		} else if first && typ.Kind == TFunc && p.tok.Kind == LBRACE {
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			decls = append(decls, &FuncDecl{Name: name, Type: typ, Storage: ds.storage, Body: body, Pos: namePos})
			return decls, nil
		} else if typ.Kind == TFunc {
			decls = append(decls, &FuncDecl{Name: name, Type: typ, Storage: ds.storage, Pos: namePos})
		} else {
			var init Expr
			if p.tok.Kind == ASSIGN {
				if err := p.next(); err != nil {
					return nil, err
				}
				init, err = p.parseInitializer()
				if err != nil {
					return nil, err
				}
			}
			decls = append(decls, &VarDecl{Name: name, Type: typ, Storage: ds.storage, Init: init, Pos: namePos})
		}
		first = false
		if p.tok.Kind != COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *Parser) parseInitializer() (Expr, error) {
	if p.tok.Kind != LBRACE {
		return p.parseAssignment()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	var items []Expr
	for p.tok.Kind != RBRACE {
		item, err := p.parseInitializer()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.tok.Kind != COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RBRACE); err != nil {
		return nil, err
	}
	return &InitList{Items: items, Pos: pos}, nil
}

// evalConst evaluates small constant expressions (for array sizes and
// enum values). It returns false when the value is not statically known
// to this evaluator.
func (p *Parser) evalConst(e Expr) (int64, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, true
	case *CharLit:
		if len(e.Text) >= 3 && e.Text[1] != '\\' {
			return int64(e.Text[1]), true
		}
		return 0, false
	case *Ident:
		v, ok := p.enums[e.Name]
		return v, ok
	case *Unary:
		v, ok := p.evalConst(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case UNeg:
			return -v, true
		case UPlus:
			return v, true
		case UBNot:
			return ^v, true
		case UNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *Binary:
		l, ok1 := p.evalConst(e.L)
		r, ok2 := p.evalConst(e.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case BAdd:
			return l + r, true
		case BSub:
			return l - r, true
		case BMul:
			return l * r, true
		case BDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case BMod:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case BShl:
			return l << uint(r&63), true
		case BShr:
			return l >> uint(r&63), true
		case BAnd:
			return l & r, true
		case BOr:
			return l | r, true
		case BXor:
			return l ^ r, true
		}
		return 0, false
	default:
		return 0, false
	}
}

func parseIntText(text string) int64 {
	t := text
	for len(t) > 0 {
		last := t[len(t)-1]
		if last == 'u' || last == 'U' || last == 'l' || last == 'L' {
			t = t[:len(t)-1]
			continue
		}
		break
	}
	v, err := strconv.ParseInt(t, 0, 64)
	if err != nil {
		// Out-of-range literals saturate; the analysis does not use the value.
		u, uerr := strconv.ParseUint(t, 0, 64)
		if uerr == nil {
			return int64(u)
		}
		return 0
	}
	return v
}
