package cfront

import (
	"fmt"
	"strings"
)

// This file renders the C AST back to compilable source: types in real
// declarator syntax (inside-out, with parentheses where pointers meet
// arrays or functions), declarations, statements and expressions. The
// printer supports the parser's round-trip tests and the const-inference
// output that re-declares functions with their inferred qualifiers.

// TypeDecl renders a declaration of name with type t in C declarator
// syntax, e.g. ("f", fn(int)→ptr(int)) ⇒ "int *f(int)". An empty name
// yields an abstract declarator (for casts).
func TypeDecl(name string, t *Type) string {
	base, decl := declParts(name, t)
	if decl == "" {
		return base
	}
	return base + " " + decl
}

// declParts splits a declaration into base-specifier text and declarator
// text.
func declParts(name string, t *Type) (string, string) {
	decl := name
	for {
		switch t.Kind {
		case TPointer:
			q := t.Quals.String()
			if q != "" {
				q += " "
			}
			decl = "*" + q + decl
			t = t.Elem
			// Pointer to array or function needs parentheses.
			if t.Kind == TArray || t.Kind == TFunc {
				decl = "(" + decl + ")"
			}
		case TArray:
			if t.ArrayLen >= 0 {
				decl = fmt.Sprintf("%s[%d]", decl, t.ArrayLen)
			} else {
				decl += "[]"
			}
			t = t.Elem
		case TFunc:
			var ps []string
			for _, p := range t.Params {
				ps = append(ps, TypeDecl(p.Name, p.Type))
			}
			if t.Variadic {
				ps = append(ps, "...")
			}
			if len(ps) == 0 {
				ps = []string{"void"}
			}
			decl += "(" + strings.Join(ps, ", ") + ")"
			t = t.Ret
		default:
			base := baseName(t)
			if q := t.Quals.String(); q != "" {
				base = q + " " + base
			}
			return base, decl
		}
	}
}

func baseName(t *Type) string {
	switch t.Kind {
	case TStruct:
		return structName(t.Struct)
	case TEnum:
		if t.EnumTag != "" {
			return "enum " + t.EnumTag
		}
		return "int"
	default:
		if t.Spelling != "" {
			return t.Spelling
		}
		return t.Kind.String()
	}
}

// structName names a struct for printing; anonymous structs get a
// synthetic tag derived from their identity so that printed programs
// reparse.
func structName(st *StructType) string {
	kw := "struct"
	if st.Union {
		kw = "union"
	}
	if st.Tag != "" {
		return kw + " " + st.Tag
	}
	return fmt.Sprintf("%s __anon%d", kw, st.ID)
}

// PrintFile renders a whole translation unit. Struct definitions that the
// source carried inside typedefs or declarations are emitted as standalone
// definitions before first use, so the output reparses completely.
func PrintFile(f *File) string {
	p := &printer{emitted: make(map[*StructType]bool)}
	for _, d := range f.Decls {
		p.emitStructsOf(declType(d))
		p.decl(d)
	}
	return p.b.String()
}

func declType(d Decl) *Type {
	switch d := d.(type) {
	case *FuncDecl:
		return d.Type
	case *VarDecl:
		return d.Type
	case *TypedefDecl:
		return d.Type
	case *TagDecl:
		return d.Type
	default:
		return nil
	}
}

type printer struct {
	b       strings.Builder
	indent  int
	emitted map[*StructType]bool
}

// emitStructsOf prints the definitions of any complete structs reachable
// from t that have not been printed yet.
func (p *printer) emitStructsOf(t *Type) {
	if t == nil {
		return
	}
	p.emitStructsOf(t.Elem)
	p.emitStructsOf(t.Ret)
	for _, param := range t.Params {
		p.emitStructsOf(param.Type)
	}
	if t.Kind == TStruct && t.Struct != nil && t.Struct.Complete && !p.emitted[t.Struct] {
		p.emitted[t.Struct] = true
		// Fields may reference other structs; emit those first (pointers
		// to the struct being defined are fine in C).
		for _, fld := range t.Struct.Fields {
			if fld.Type.Kind != TPointer {
				p.emitStructsOf(fld.Type)
			}
		}
		p.line("%s {", structName(t.Struct))
		p.indent++
		for _, fld := range t.Struct.Fields {
			p.line("%s;", TypeDecl(fld.Name, fld.Type))
		}
		p.indent--
		p.line("};")
	}
}

func (p *printer) pf(format string, args ...interface{}) {
	fmt.Fprintf(&p.b, format, args...)
}

func (p *printer) line(format string, args ...interface{}) {
	p.pf("%s", strings.Repeat("\t", p.indent))
	p.pf(format, args...)
	p.pf("\n")
}

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *FuncDecl:
		storage := d.Storage.String()
		if storage != "" {
			storage += " "
		}
		if d.Body == nil {
			p.line("%s%s;", storage, TypeDecl(d.Name, d.Type))
			return
		}
		p.line("%s%s", storage, TypeDecl(d.Name, d.Type))
		p.block(d.Body)
		p.pf("\n")
	case *VarDecl:
		p.varDecl(d)
	case *TypedefDecl:
		p.line("typedef %s;", TypeDecl(d.Name, d.Type))
	case *TagDecl:
		p.tagDecl(d.Type)
	}
}

func (p *printer) varDecl(d *VarDecl) {
	storage := d.Storage.String()
	if storage != "" {
		storage += " "
	}
	if d.Init != nil {
		p.line("%s%s = %s;", storage, TypeDecl(d.Name, d.Type), ExprString(d.Init))
	} else {
		p.line("%s%s;", storage, TypeDecl(d.Name, d.Type))
	}
}

func (p *printer) tagDecl(t *Type) {
	// Complete struct definitions were emitted by emitStructsOf; print a
	// reference declaration for anything else (incomplete tags, enums).
	if t.Kind == TStruct && t.Struct != nil && p.emitted[t.Struct] {
		return
	}
	if t.Kind == TEnum && len(t.Enumerators) > 0 {
		tag := t.EnumTag
		if tag != "" {
			tag = " " + tag
		}
		var items []string
		for _, e := range t.Enumerators {
			items = append(items, fmt.Sprintf("%s = %d", e.Name, e.Value))
		}
		p.line("enum%s { %s };", tag, strings.Join(items, ", "))
		return
	}
	p.line("%s;", baseName(t))
}

func (p *printer) block(b *Block) {
	p.line("{")
	p.indent++
	for _, s := range b.Items {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.block(s)
	case *DeclStmt:
		for _, d := range s.Decls {
			p.emitStructsOf(declType(d))
			p.decl(d)
		}
	case *ExprStmt:
		p.line("%s;", ExprString(s.X))
	case *EmptyStmt:
		p.line(";")
	case *IfStmt:
		p.line("if (%s)", ExprString(s.Cond))
		p.nested(s.Then)
		if s.Else != nil {
			p.line("else")
			p.nested(s.Else)
		}
	case *WhileStmt:
		p.line("while (%s)", ExprString(s.Cond))
		p.nested(s.Body)
	case *DoWhileStmt:
		p.line("do")
		p.nested(s.Body)
		p.line("while (%s);", ExprString(s.Cond))
	case *ForStmt:
		init := ""
		switch is := s.Init.(type) {
		case nil:
		case *ExprStmt:
			init = ExprString(is.X)
		default:
			// Declaration initializers are hoisted above the loop to stay
			// within the ANSI subset.
			p.stmt(s.Init)
		}
		cond, post := "", ""
		if s.Cond != nil {
			cond = ExprString(s.Cond)
		}
		if s.Post != nil {
			post = ExprString(s.Post)
		}
		p.line("for (%s; %s; %s)", init, cond, post)
		p.nested(s.Body)
	case *ReturnStmt:
		if s.Value != nil {
			p.line("return %s;", ExprString(s.Value))
		} else {
			p.line("return;")
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *GotoStmt:
		p.line("goto %s;", s.Label)
	case *LabelStmt:
		p.line("%s:", s.Label)
		p.stmt(s.Stmt)
	case *SwitchStmt:
		p.line("switch (%s)", ExprString(s.Tag))
		p.nested(s.Body)
	case *CaseStmt:
		if s.Value != nil {
			p.line("case %s:", ExprString(s.Value))
		} else {
			p.line("default:")
		}
		p.stmt(s.Stmt)
	}
}

func (p *printer) nested(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.block(b)
		return
	}
	p.indent++
	p.stmt(s)
	p.indent--
}

// Expression precedence levels for minimal parenthesization.
const (
	precComma = iota
	precAssign
	precCond
	precLOr
	precLAnd
	precBitOr
	precBitXor
	precBitAnd
	precEq
	precRel
	precShift
	precAddSub
	precMulDiv
	precCast
	precUnary
	precPostfix
	precPrimary
)

func binPrec(op BinaryOp) int {
	switch op {
	case BLOr:
		return precLOr
	case BLAnd:
		return precLAnd
	case BOr:
		return precBitOr
	case BXor:
		return precBitXor
	case BAnd:
		return precBitAnd
	case BEq, BNe:
		return precEq
	case BLt, BGt, BLe, BGe:
		return precRel
	case BShl, BShr:
		return precShift
	case BAdd, BSub:
		return precAddSub
	default:
		return precMulDiv
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var b strings.Builder
	printExpr(&b, e, precComma)
	return b.String()
}

func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *Comma:
		return precComma
	case *AssignExpr:
		return precAssign
	case *Cond:
		return precCond
	case *Binary:
		return binPrec(e.Op)
	case *Cast:
		return precCast
	case *Unary:
		return precUnary
	case *SizeofExpr, *SizeofType:
		return precUnary
	case *Postfix, *Call, *Index, *Member:
		return precPostfix
	default:
		return precPrimary
	}
}

func printExpr(b *strings.Builder, e Expr, min int) {
	if exprPrec(e) < min {
		b.WriteString("(")
		printExpr(b, e, precComma)
		b.WriteString(")")
		return
	}
	switch e := e.(type) {
	case *Ident:
		b.WriteString(e.Name)
	case *IntLit:
		b.WriteString(e.Text)
	case *FloatLit:
		b.WriteString(e.Text)
	case *CharLit:
		b.WriteString(e.Text)
	case *StrLit:
		b.WriteString(e.Text)
	case *Unary:
		b.WriteString(e.Op.String())
		// Guard -(-x) and &(&x) from fusing into -- and &&.
		if inner, ok := e.X.(*Unary); ok && inner.Op == e.Op && (e.Op == UNeg || e.Op == UAddr || e.Op == UPlus) {
			b.WriteString("(")
			printExpr(b, e.X, precComma)
			b.WriteString(")")
			return
		}
		printExpr(b, e.X, precUnary)
	case *Postfix:
		printExpr(b, e.X, precPostfix)
		b.WriteString(e.Op.String())
	case *Binary:
		pr := binPrec(e.Op)
		printExpr(b, e.L, pr)
		b.WriteString(" " + e.Op.String() + " ")
		printExpr(b, e.R, pr+1)
	case *AssignExpr:
		printExpr(b, e.L, precCond)
		if e.Op == PlainAssign {
			b.WriteString(" = ")
		} else {
			b.WriteString(" " + e.Op.String() + "= ")
		}
		printExpr(b, e.R, precAssign)
	case *Cond:
		printExpr(b, e.C, precLOr)
		b.WriteString(" ? ")
		printExpr(b, e.T, precComma)
		b.WriteString(" : ")
		printExpr(b, e.F, precCond)
	case *Call:
		printExpr(b, e.Fn, precPostfix)
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a, precAssign)
		}
		b.WriteString(")")
	case *Index:
		printExpr(b, e.X, precPostfix)
		b.WriteString("[")
		printExpr(b, e.I, precComma)
		b.WriteString("]")
	case *Member:
		printExpr(b, e.X, precPostfix)
		if e.Arrow {
			b.WriteString("->")
		} else {
			b.WriteString(".")
		}
		b.WriteString(e.Name)
	case *Cast:
		b.WriteString("(" + TypeDecl("", e.To) + ")")
		printExpr(b, e.X, precCast)
	case *SizeofType:
		b.WriteString("sizeof(" + TypeDecl("", e.T) + ")")
	case *SizeofExpr:
		b.WriteString("sizeof ")
		printExpr(b, e.X, precUnary)
	case *Comma:
		printExpr(b, e.L, precAssign)
		b.WriteString(", ")
		printExpr(b, e.R, precAssign)
	case *InitList:
		b.WriteString("{ ")
		for i, item := range e.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, item, precAssign)
		}
		b.WriteString(" }")
	default:
		fmt.Fprintf(b, "/* ? %T */", e)
	}
}
