package cfront

import (
	"fmt"
	"strings"
	"testing"
)

func TestEvalConstOperators(t *testing.T) {
	src := `
		enum e {
			A = 1 + 2,
			B = 10 - 3,
			C = 4 * 5,
			D = 20 / 4,
			E = 20 % 6,
			F = 1 << 4,
			G = 64 >> 2,
			H = 12 & 10,
			I = 12 | 3,
			J = 12 ^ 10,
			K = -5,
			L = +5,
			M = ~0,
			N = !0,
			O = !7,
			P = 'a',
			Q = A + B,
		};
		int arr[A];`
	f := parse(t, src)
	want := map[string]int64{
		"A": 3, "B": 7, "C": 20, "D": 5, "E": 2, "F": 16, "G": 16,
		"H": 8, "I": 15, "J": 6, "K": -5, "L": 5, "M": -1, "N": 1, "O": 0,
		"P": 'a', "Q": 10,
	}
	for name, w := range want {
		if got, ok := f.EnumConsts[name]; !ok || got != w {
			t.Errorf("enum %s = %d (ok=%v), want %d", name, got, ok, w)
		}
	}
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "arr" && v.Type.ArrayLen != 3 {
			t.Errorf("arr length %d", v.Type.ArrayLen)
		}
	}
}

func TestEvalConstNonConstant(t *testing.T) {
	// Array sizes that cannot be evaluated stay unknown (-1) instead of
	// failing the parse.
	f := parse(t, "extern int n; int arr[n + 1];")
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "arr" {
			if v.Type.ArrayLen != -1 {
				t.Errorf("arr length %d, want -1 (unknown)", v.Type.ArrayLen)
			}
		}
	}
	// Division and modulo by zero are not constant.
	f = parse(t, "enum z { BAD = 5 / 0, WORSE = 5 % 0, NEXT };")
	// Values are unspecified but parsing must succeed and NEXT exists.
	if _, ok := f.EnumConsts["NEXT"]; !ok {
		t.Error("NEXT missing")
	}
}

func TestParseIntTextForms(t *testing.T) {
	cases := map[string]int64{
		"0":                  0,
		"42":                 42,
		"0x1F":               31,
		"0X10":               16,
		"017":                15, // octal
		"42u":                42,
		"42UL":               42,
		"42ull":              42,
		"1234567890":         1234567890,
		"0xFFFFFFFFFFFFFFFF": -1, // saturates through uint64
	}
	for text, want := range cases {
		if got := parseIntText(text); got != want {
			t.Errorf("parseIntText(%q) = %d, want %d", text, got, want)
		}
	}
}

func TestLexerNumericForms(t *testing.T) {
	toks, err := Tokenize("t.c", "1.5f 2e10 3.14e-2 0x1F 017 10UL 1e+5 1.f")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{FLOATLIT, FLOATLIT, FLOATLIT, INTLIT, INTLIT, INTLIT, FLOATLIT, FLOATLIT, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens %v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
	// "1.e" with no exponent digits: 1. then identifier? Our lexer treats
	// e without digits as the end of the number.
	toks, err = Tokenize("t.c", "1.e")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != FLOATLIT || toks[1].Kind != IDENT {
		t.Errorf("1.e lexed as %v", toks)
	}
}

func TestLocalTypedefAndTag(t *testing.T) {
	f := parse(t, `
		int g(void) {
			typedef int counter;
			struct pt { int x, y; };
			counter c = 0;
			struct pt p;
			p.x = 1;
			p.y = 2;
			c += p.x;
			return c + p.y;
		}`)
	fd := f.Decls[0].(*FuncDecl)
	found := 0
	for _, it := range fd.Body.Items {
		if ds, ok := it.(*DeclStmt); ok {
			for _, d := range ds.Decls {
				switch d.(type) {
				case *TypedefDecl, *TagDecl:
					found++
				}
			}
		}
	}
	if found < 2 {
		t.Errorf("local typedef/tag decls found: %d", found)
	}
}

func TestTypeStrings(t *testing.T) {
	for k, want := range map[TypeKind]string{
		TVoid: "void", TChar: "char", TInt: "int", TFloat: "float",
		TPointer: "pointer", TArray: "array", TFunc: "function",
		TStruct: "struct", TEnum: "enum",
	} {
		if k.String() != want {
			t.Errorf("TypeKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(TypeKind(99).String(), "99") {
		t.Error("unknown TypeKind string")
	}
	st := &StructType{Tag: "s"}
	if st.String() != "struct s" {
		t.Errorf("struct String = %q", st.String())
	}
	u := &StructType{Union: true, ID: 7}
	if !strings.Contains(u.String(), "union") || !strings.Contains(u.String(), "7") {
		t.Errorf("anon union String = %q", u.String())
	}
	f := parse(t, "enum tag { X }; enum tag e; float fl; void *vp; int fn(void);")
	var rendered []string
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok {
			rendered = append(rendered, v.Type.String())
		}
		if fd, ok := d.(*FuncDecl); ok {
			rendered = append(rendered, fd.Type.String())
		}
	}
	joined := strings.Join(rendered, ";")
	for _, want := range []string{"enum tag", "float", "ptr(void)", "fn() int"} {
		if !strings.Contains(joined, want) {
			t.Errorf("type strings %q missing %q", joined, want)
		}
	}
}

func TestPosAccessors(t *testing.T) {
	f := parse(t, `
		typedef int t;
		struct s { int x; };
		int v = 1;
		int fn(int a) {
			int loc;
			;
			loc = a;
			if (a) loc++; else loc--;
			while (a) break;
			do continue; while (0);
			for (;;) break;
			switch (a) { case 1: break; default: break; }
			lab: goto lab2;
			lab2: return loc;
		}`)
	for _, d := range f.Decls {
		if !d.DeclPos().IsValid() {
			t.Errorf("%T has invalid position", d)
		}
	}
	fd := f.Decls[len(f.Decls)-1].(*FuncDecl)
	var walk func(Stmt)
	walk = func(s Stmt) {
		if s == nil {
			return
		}
		if !s.StmtPos().IsValid() {
			t.Errorf("%T has invalid position", s)
		}
		switch s := s.(type) {
		case *Block:
			for _, it := range s.Items {
				walk(it)
			}
		case *IfStmt:
			walk(s.Then)
			walk(s.Else)
		case *WhileStmt:
			walk(s.Body)
		case *DoWhileStmt:
			walk(s.Body)
		case *ForStmt:
			walk(s.Init)
			walk(s.Body)
		case *SwitchStmt:
			walk(s.Body)
		case *CaseStmt:
			walk(s.Stmt)
		case *LabelStmt:
			walk(s.Stmt)
		}
	}
	walk(fd.Body)
	var zero Pos
	if zero.IsValid() {
		t.Error("zero position valid")
	}
	if got := (Pos{Line: 2, Col: 3}).String(); got != "2:3" {
		t.Errorf("Pos.String = %q", got)
	}
}

// TestPosString checks the fmt-free Pos.String and SyntaxError.Error
// against the fmt forms they replaced, with and without a file name.
func TestPosString(t *testing.T) {
	for _, p := range []Pos{
		{}, {Line: 2, Col: 3}, {Line: 10, Col: 1}, {Line: 123456, Col: 78},
		{Line: -1, Col: -2147483648}, {Line: 2147483647, Col: 2147483647},
	} {
		want := fmt.Sprintf("%d:%d", p.Line, p.Col)
		if got := p.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", p, got, want)
		}
		for _, file := range []string{"", "a.c", "dir/x y.c"} {
			e := &SyntaxError{File: file, Pos: p, Msg: "unexpected ';'"}
			want := fmt.Sprintf("%s:%d:%d: %s", file, p.Line, p.Col, e.Msg)
			if file == "" {
				want = fmt.Sprintf("%d:%d: %s", p.Line, p.Col, e.Msg)
			}
			if got := e.Error(); got != want {
				t.Errorf("%#v.Error() = %q, want %q", e, got, want)
			}
		}
	}
}

func TestExprPosAccessors(t *testing.T) {
	f := parse(t, `
		struct s { int f; };
		int g(struct s *p, int a[]) {
			int x = (a[0], -a[1] + p->f * sizeof(int) - sizeof a);
			x = a[0] ? (int)1.5 : x++;
			return x;
		}`)
	fd := f.Decls[1].(*FuncDecl)
	var walkE func(Expr)
	walkE = func(e Expr) {
		if e == nil {
			return
		}
		if !e.ExprPos().IsValid() {
			t.Errorf("%T has invalid position", e)
		}
		switch e := e.(type) {
		case *Unary:
			walkE(e.X)
		case *Postfix:
			walkE(e.X)
		case *Binary:
			walkE(e.L)
			walkE(e.R)
		case *AssignExpr:
			walkE(e.L)
			walkE(e.R)
		case *Cond:
			walkE(e.C)
			walkE(e.T)
			walkE(e.F)
		case *Call:
			walkE(e.Fn)
		case *Index:
			walkE(e.X)
			walkE(e.I)
		case *Member:
			walkE(e.X)
		case *Cast:
			walkE(e.X)
		case *SizeofExpr:
			walkE(e.X)
		case *Comma:
			walkE(e.L)
			walkE(e.R)
		case *InitList:
			for _, it := range e.Items {
				walkE(it)
			}
		}
	}
	var walkS func(Stmt)
	walkS = func(s Stmt) {
		switch s := s.(type) {
		case *Block:
			for _, it := range s.Items {
				walkS(it)
			}
		case *DeclStmt:
			for _, d := range s.Decls {
				if v, ok := d.(*VarDecl); ok && v.Init != nil {
					walkE(v.Init)
				}
			}
		case *ExprStmt:
			walkE(s.X)
		case *ReturnStmt:
			walkE(s.Value)
		}
	}
	walkS(fd.Body)
}

func TestMultiDimAndMixedDeclarators(t *testing.T) {
	f := parse(t, `
		char grid[4][8];
		int *a, b, **c, d[2];
		const volatile int cv;
		int (*(*f)(int))(char);
		char *const *p;
		int (*fa[4])(void);
		int ((x));
		unsigned long sz = sizeof(int (*)[3]);
		void *q = (char (*)(int))p;
		int g(int (*)(void), char []);
	`)
	// Abstract declarators are keyed by the construct holding them.
	types := map[string]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *VarDecl:
			types[d.Name] = d.Type.String()
			switch init := d.Init.(type) {
			case *SizeofType:
				types["sizeof"] = init.T.String()
			case *Cast:
				types["cast"] = init.To.String()
			}
		case *FuncDecl:
			types[d.Name] = d.Type.String()
		}
	}
	wants := map[string]string{
		"grid":   "array[4](array[8](char))",
		"a":      "ptr(int)",
		"b":      "int",
		"c":      "ptr(ptr(int))",
		"d":      "array[2](int)",
		"cv":     "const volatile int",
		"f":      "ptr(fn(int) ptr(fn(char) int))",
		"p":      "ptr(const ptr(char))",
		"fa":     "array[4](ptr(fn() int))",
		"x":      "int",
		"sizeof": "ptr(array[3](int))",
		"cast":   "ptr(fn(int) char)",
		"g":      "fn(ptr(fn() int), ptr(char)) int",
	}
	for name, want := range wants {
		if types[name] != want {
			t.Errorf("%s: %s, want %s", name, types[name], want)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	for _, k := range []TokKind{EOF, IDENT, INTLIT, STRLIT, LPAREN, ELLIPSIS,
		SHLEQ, ARROW, kwConst, kwStruct, kwWhile} {
		if k.String() == "" {
			t.Errorf("TokKind %d has empty string", k)
		}
	}
	for k, want := range map[TokKind]string{
		EOF: "end of file", STRLIT: "string literal", kwAuto: "'auto'",
		kwConst: "'const'", kwWhile: "'while'", LPAREN: "'('",
		ELLIPSIS: "'...'", SHLEQ: "'<<='", OREQ: "'|='",
	} {
		if got := k.String(); got != want {
			t.Errorf("TokKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	for _, k := range []TokKind{-1, OREQ + 1, 999} {
		if want := fmt.Sprintf("token(%d)", int(k)); k.String() != want {
			t.Errorf("TokKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestParserEnumConstantsAccessor(t *testing.T) {
	p := &Parser{enums: map[string]int64{"X": 3}}
	if p.EnumConstants()["X"] != 3 {
		t.Error("EnumConstants accessor broken")
	}
}

func TestCommaAndConditionalInDeclarations(t *testing.T) {
	f := parse(t, `
		int pick(int c) {
			int x = c ? 1 : 2, y = (c, 3);
			return x + y;
		}`)
	fd := f.Decls[0].(*FuncDecl)
	ds := fd.Body.Items[0].(*DeclStmt)
	if len(ds.Decls) != 2 {
		t.Fatalf("decls: %d", len(ds.Decls))
	}
	if _, ok := ds.Decls[0].(*VarDecl).Init.(*Cond); !ok {
		t.Error("x init not a conditional")
	}
}

func TestStringEscapes(t *testing.T) {
	f := parse(t, `char *s = "a\"b\\c\n";`)
	v := f.Decls[0].(*VarDecl)
	lit, ok := v.Init.(*StrLit)
	if !ok {
		t.Fatalf("init %T", v.Init)
	}
	if !strings.Contains(lit.Text, `\"`) {
		t.Errorf("escape lost: %q", lit.Text)
	}
}

func TestPointerToFunctionParams(t *testing.T) {
	f := parse(t, "void qsort(void *base, unsigned long n, unsigned long sz, int (*cmp)(const void *, const void *));")
	fd := f.Decls[0].(*FuncDecl)
	cmp := fd.Type.Params[3].Type
	if cmp.String() != "ptr(fn(ptr(const void), ptr(const void)) int)" {
		t.Errorf("cmp: %s", cmp)
	}
	// Round trip through the printer.
	if got := TypeDecl("qsort", fd.Type); !strings.Contains(got, "int (*cmp)(const void *, const void *)") {
		t.Errorf("TypeDecl = %q", got)
	}
}
