package cfront

// AST fingerprinting for content-addressed caching.
//
// A fingerprint is a stable byte encoding of a declaration — structure,
// names, literals, types, and every source position — such that two
// declarations with equal fingerprints generate byte-identical analysis
// output. Positions are included deliberately: constraint provenance and
// report positions embed "file:line:col" strings, so a function whose
// text is unchanged but whose line numbers shifted must fingerprint
// differently.
//
// Skeleton mode (FingerprintDecl with includeBody=false) elides function
// bodies, encoding only the declaration interface. The incremental cache
// uses the skeleton of a whole program as the "prepare fingerprint" (the
// shared state all function analyses observe) and the full fingerprint of
// one function as its body key.

import (
	"fmt"
	"io"
)

// fingerprinter writes the encoding. Struct definitions are written once
// per fingerprint (by tag and ID afterwards) to terminate on
// self-referential structs.
type fingerprinter struct {
	w    io.Writer
	seen map[*StructType]bool
}

// FingerprintDecl writes a stable encoding of d to w (typically a
// hash.Hash). With includeBody=false, function bodies are elided and only
// the declaration interface (name, storage, type, positions) is encoded.
func FingerprintDecl(w io.Writer, d Decl, includeBody bool) {
	f := &fingerprinter{w: w, seen: make(map[*StructType]bool)}
	f.decl(d, includeBody)
}

// FingerprintFuncBody writes the full encoding of one function
// definition, including its body; it is the content key of the
// per-function incremental cache.
func FingerprintFuncBody(w io.Writer, d *FuncDecl) {
	FingerprintDecl(w, d, true)
}

func (f *fingerprinter) str(s string) {
	fmt.Fprintf(f.w, "%d:%s", len(s), s)
}

func (f *fingerprinter) tag(t string) { io.WriteString(f.w, t+";") }

func (f *fingerprinter) num(ns ...int64) {
	for _, n := range ns {
		fmt.Fprintf(f.w, "%d,", n)
	}
}

func (f *fingerprinter) pos(p Pos) {
	f.str(p.File)
	f.num(int64(p.Line), int64(p.Col))
}

func (f *fingerprinter) decl(d Decl, includeBody bool) {
	switch d := d.(type) {
	case nil:
		f.tag("dnil")
	case *FuncDecl:
		f.tag("dfunc")
		f.str(d.Name)
		f.num(int64(d.Storage))
		f.pos(d.Pos)
		f.typ(d.Type)
		if d.Body == nil {
			f.tag("proto")
		} else if includeBody {
			f.tag("body")
			f.stmt(d.Body)
		} else {
			f.tag("defined") // skeleton: definition exists, body elided
		}
	case *VarDecl:
		f.tag("dvar")
		f.str(d.Name)
		f.num(int64(d.Storage))
		f.pos(d.Pos)
		f.typ(d.Type)
		if d.Init == nil {
			f.tag("noinit")
		} else if includeBody {
			f.tag("init")
			f.expr(d.Init)
		} else {
			// Skeleton: global initializers are analyzed after every
			// function body, so their contents do not affect the state a
			// body analysis observes — only their presence is encoded.
			f.tag("hasinit")
		}
	case *TypedefDecl:
		f.tag("dtypedef")
		f.str(d.Name)
		f.pos(d.Pos)
		f.typ(d.Type)
	case *TagDecl:
		f.tag("dtag")
		f.pos(d.Pos)
		f.typ(d.Type)
	default:
		f.tag(fmt.Sprintf("decl?%T", d))
	}
}

func (f *fingerprinter) typ(t *Type) {
	if t == nil {
		f.tag("tnil")
		return
	}
	f.tag("t")
	f.num(int64(t.Kind))
	if t.Quals.Const {
		f.tag("const")
		f.pos(t.Quals.ConstPos)
	}
	if t.Quals.Volatile {
		f.tag("volatile")
	}
	f.str(t.Spelling)
	switch t.Kind {
	case TPointer, TArray:
		f.num(t.ArrayLen)
		f.typ(t.Elem)
	case TFunc:
		if t.Variadic {
			f.tag("variadic")
		}
		f.num(int64(len(t.Params)))
		for _, p := range t.Params {
			f.str(p.Name)
			f.pos(p.Pos)
			f.typ(p.Type)
		}
		f.typ(t.Ret)
	case TStruct:
		f.structType(t.Struct)
	case TEnum:
		f.str(t.EnumTag)
		f.num(int64(len(t.Enumerators)))
		for _, e := range t.Enumerators {
			f.str(e.Name)
			f.num(e.Value)
		}
	}
}

func (f *fingerprinter) structType(st *StructType) {
	if st == nil {
		f.tag("snil")
		return
	}
	if st.Union {
		f.tag("union")
	} else {
		f.tag("struct")
	}
	f.str(st.Tag)
	f.num(int64(st.ID))
	if f.seen[st] {
		f.tag("ref") // already encoded in this fingerprint
		return
	}
	f.seen[st] = true
	if !st.Complete {
		f.tag("incomplete")
		return
	}
	f.pos(st.DefPos)
	f.num(int64(len(st.Fields)))
	for _, fl := range st.Fields {
		f.str(fl.Name)
		f.pos(fl.Pos)
		f.typ(fl.Type)
	}
}

func (f *fingerprinter) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
		f.tag("snil")
	case *Block:
		f.tag("block")
		f.pos(s.Pos)
		f.num(int64(len(s.Items)))
		for _, it := range s.Items {
			f.stmt(it)
		}
	case *DeclStmt:
		f.tag("declstmt")
		f.pos(s.Pos)
		f.num(int64(len(s.Decls)))
		for _, d := range s.Decls {
			f.decl(d, true)
		}
	case *ExprStmt:
		f.tag("exprstmt")
		f.pos(s.Pos)
		f.expr(s.X)
	case *EmptyStmt:
		f.tag("empty")
		f.pos(s.Pos)
	case *IfStmt:
		f.tag("if")
		f.pos(s.Pos)
		f.expr(s.Cond)
		f.stmt(s.Then)
		f.stmt(s.Else)
	case *WhileStmt:
		f.tag("while")
		f.pos(s.Pos)
		f.expr(s.Cond)
		f.stmt(s.Body)
	case *DoWhileStmt:
		f.tag("dowhile")
		f.pos(s.Pos)
		f.stmt(s.Body)
		f.expr(s.Cond)
	case *ForStmt:
		f.tag("for")
		f.pos(s.Pos)
		f.stmt(s.Init)
		f.expr(s.Cond)
		f.expr(s.Post)
		f.stmt(s.Body)
	case *ReturnStmt:
		f.tag("return")
		f.pos(s.Pos)
		f.expr(s.Value)
	case *BreakStmt:
		f.tag("break")
		f.pos(s.Pos)
	case *ContinueStmt:
		f.tag("continue")
		f.pos(s.Pos)
	case *GotoStmt:
		f.tag("goto")
		f.str(s.Label)
		f.pos(s.Pos)
	case *LabelStmt:
		f.tag("label")
		f.str(s.Label)
		f.pos(s.Pos)
		f.stmt(s.Stmt)
	case *SwitchStmt:
		f.tag("switch")
		f.pos(s.Pos)
		f.expr(s.Tag)
		f.stmt(s.Body)
	case *CaseStmt:
		f.tag("case")
		f.pos(s.Pos)
		f.expr(s.Value)
		f.stmt(s.Stmt)
	default:
		f.tag(fmt.Sprintf("stmt?%T", s))
	}
}

func (f *fingerprinter) expr(e Expr) {
	switch e := e.(type) {
	case nil:
		f.tag("enil")
	case *Ident:
		f.tag("id")
		f.str(e.Name)
		f.pos(e.Pos)
	case *IntLit:
		f.tag("int")
		f.str(e.Text)
		f.num(e.Val)
		f.pos(e.Pos)
	case *FloatLit:
		f.tag("float")
		f.str(e.Text)
		f.pos(e.Pos)
	case *CharLit:
		f.tag("char")
		f.str(e.Text)
		f.pos(e.Pos)
	case *StrLit:
		f.tag("str")
		f.str(e.Text)
		f.pos(e.Pos)
	case *Unary:
		f.tag("unary")
		f.num(int64(e.Op))
		f.pos(e.Pos)
		f.expr(e.X)
	case *Postfix:
		f.tag("postfix")
		f.num(int64(e.Op))
		f.pos(e.Pos)
		f.expr(e.X)
	case *Binary:
		f.tag("binary")
		f.num(int64(e.Op))
		f.pos(e.Pos)
		f.expr(e.L)
		f.expr(e.R)
	case *AssignExpr:
		f.tag("assign")
		f.num(int64(e.Op))
		f.pos(e.Pos)
		f.expr(e.L)
		f.expr(e.R)
	case *Cond:
		f.tag("cond")
		f.pos(e.Pos)
		f.expr(e.C)
		f.expr(e.T)
		f.expr(e.F)
	case *Call:
		f.tag("call")
		f.pos(e.Pos)
		f.expr(e.Fn)
		f.num(int64(len(e.Args)))
		for _, a := range e.Args {
			f.expr(a)
		}
	case *Index:
		f.tag("index")
		f.pos(e.Pos)
		f.expr(e.X)
		f.expr(e.I)
	case *Member:
		f.tag("member")
		f.str(e.Name)
		if e.Arrow {
			f.tag("arrow")
		}
		f.pos(e.Pos)
		f.expr(e.X)
	case *Cast:
		f.tag("cast")
		f.pos(e.Pos)
		f.typ(e.To)
		f.expr(e.X)
	case *SizeofType:
		f.tag("sizeoft")
		f.pos(e.Pos)
		f.typ(e.T)
	case *SizeofExpr:
		f.tag("sizeofe")
		f.pos(e.Pos)
		f.expr(e.X)
	case *Comma:
		f.tag("comma")
		f.pos(e.Pos)
		f.expr(e.L)
		f.expr(e.R)
	case *InitList:
		f.tag("initlist")
		f.pos(e.Pos)
		f.num(int64(len(e.Items)))
		for _, it := range e.Items {
			f.expr(it)
		}
	default:
		f.tag(fmt.Sprintf("expr?%T", e))
	}
}
