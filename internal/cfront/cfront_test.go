package cfront

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("t.c", `int x = 42; /* c */ // line
		char *s = "hi\n"; 'a' 0x1F 3.14 1e-3 10UL ... <<= >>= -> ++`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{kwInt, IDENT, ASSIGN, INTLIT, SEMI,
		kwChar, STAR, IDENT, ASSIGN, STRLIT, SEMI,
		CHARLIT, INTLIT, FLOATLIT, FLOATLIT, INTLIT,
		ELLIPSIS, SHLEQ, SHREQ, ARROW, INC, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerPreprocessorSkipped(t *testing.T) {
	toks, err := Tokenize("t.c", `
#include <stdio.h>
#define FOO(x) \
	((x) + 1)
int x;
  # pragma once
char c;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 7 { // int x ; char c ; EOF
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"/* unterminated", "t.c:1:1: unterminated comment"},
		{`"unterminated`, "t.c:1:1: unterminated string literal"},
		{"'a", "t.c:1:1: unterminated character literal"},
		{"$", `t.c:1:1: unexpected character "$"`},
		// The unexpected byte is quoted as it is in the file: NUL and
		// DEL escaped, 0xA9 as a byte rather than the rune "©".
		{"@", `t.c:1:1: unexpected character "@"`},
		{"int \x00;", `t.c:1:5: unexpected character "\x00"`},
		{"\n  \x7f", `t.c:2:3: unexpected character "\x7f"`},
		{"x\xa9", `t.c:1:2: unexpected character "\xa9"`},
	} {
		_, err := Tokenize("t.c", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Tokenize(%q) error = %v, want %s", tc.src, err, tc.want)
		}
	}
}

// lexerAllTokens holds every keyword and punctuator, identifiers,
// decimal, hex and float numbers, and char and string literals, with
// comments and directives between them.
const lexerAllTokens = `#define MAX(a, b) ((a) > (b) ? (a) : (b))
auto break case char const continue default do double else enum extern
float for goto if int long register return short signed sizeof static
struct switch typedef union unsigned void volatile while /* block */
( ) { } [ ] ; , ... . -> ++ -- & * + - ~ ! / % << >> < > <= >= == !=
^ | && || ? : = *= /= %= += -= <<= >>= &= ^= |= // line
  # pragma once
x _y9 caf` + "\xe9" + ` 42 0x1F 0XffUL 3.14 1e-3 .5 2.5e+10f 10UL 'a' '\n' "str \"q\"\t"
`

// Scanning a token allocates nothing.
func TestLexerAllocFree(t *testing.T) {
	toks, err := Tokenize("all.c", lexerAllTokens)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[TokKind]bool{}
	for _, tk := range toks {
		seen[tk.Kind] = true
	}
	for k := EOF; int(k) < len(tokText); k++ {
		if !seen[k] {
			t.Errorf("the input holds no %v token", k)
		}
	}
	l := new(Lexer)
	allocs := testing.AllocsPerRun(20, func() {
		*l = Lexer{src: lexerAllTokens, file: "all.c", line: 1, col: 1}
		for {
			tok, err := l.Next()
			if err != nil {
				panic(err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations lexing %d tokens, want 0", allocs, len(toks))
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Tokenize("t.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestParseSimpleDecls(t *testing.T) {
	f := parse(t, `
		int x;
		const int y = 5;
		char *s;
		const char *cs;
		char * const pc;
		int arr[10];
		int m[3][4];
		unsigned long ul;
		double d;
		static int counter;
		extern int lib_fn(int, char *);
	`)
	byName := map[string]*VarDecl{}
	var fns []*FuncDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *VarDecl:
			byName[d.Name] = d
		case *FuncDecl:
			fns = append(fns, d)
		}
	}
	if got := byName["x"].Type.String(); got != "int" {
		t.Errorf("x: %s", got)
	}
	if got := byName["y"].Type.String(); got != "const int" {
		t.Errorf("y: %s", got)
	}
	if byName["y"].Init == nil {
		t.Error("y has no initializer")
	}
	if got := byName["s"].Type.String(); got != "ptr(char)" {
		t.Errorf("s: %s", got)
	}
	if got := byName["cs"].Type.String(); got != "ptr(const char)" {
		t.Errorf("cs: %s", got)
	}
	if got := byName["pc"].Type.String(); got != "const ptr(char)" {
		t.Errorf("pc: %s", got)
	}
	if got := byName["arr"].Type.String(); got != "array[10](int)" {
		t.Errorf("arr: %s", got)
	}
	if got := byName["m"].Type.String(); got != "array[3](array[4](int))" {
		t.Errorf("m: %s", got)
	}
	if got := byName["ul"].Type.String(); got != "unsigned long" {
		t.Errorf("ul: %s", got)
	}
	if byName["counter"].Storage != SCStatic {
		t.Error("counter not static")
	}
	if len(fns) != 1 || fns[0].Name != "lib_fn" || fns[0].Body != nil {
		t.Fatalf("prototype wrong: %+v", fns)
	}
	if fns[0].Storage != SCExtern {
		t.Error("lib_fn not extern")
	}
	if got := fns[0].Type.String(); got != "fn(int, ptr(char)) int" {
		t.Errorf("lib_fn: %s", got)
	}
}

func TestParseComplexDeclarators(t *testing.T) {
	f := parse(t, `
		int *pf(void);
		int (*fp)(int);
		int (*fparr[4])(char);
		char **argv;
		const char * const * path;
		int (*(*ff)(int))(char);
	`)
	types := map[string]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *VarDecl:
			types[d.Name] = d.Type.String()
		case *FuncDecl:
			types[d.Name] = d.Type.String()
		}
	}
	cases := map[string]string{
		"pf":    "fn() ptr(int)",
		"fp":    "ptr(fn(int) int)",
		"fparr": "array[4](ptr(fn(char) int))",
		"argv":  "ptr(ptr(char))",
		"path":  "ptr(const ptr(const char))",
		"ff":    "ptr(fn(int) ptr(fn(char) int))",
	}
	for name, want := range cases {
		if types[name] != want {
			t.Errorf("%s: got %s, want %s", name, types[name], want)
		}
	}
}

func TestParseFunctionDef(t *testing.T) {
	f := parse(t, `
		int add(int a, int b) {
			return a + b;
		}
	`)
	fd, ok := f.Decls[0].(*FuncDecl)
	if !ok {
		t.Fatalf("got %T", f.Decls[0])
	}
	if fd.Name != "add" || fd.Body == nil {
		t.Fatal("definition not recognized")
	}
	if len(fd.Type.Params) != 2 || fd.Type.Params[0].Name != "a" || fd.Type.Params[1].Name != "b" {
		t.Errorf("params: %+v", fd.Type.Params)
	}
	if len(fd.Body.Items) != 1 {
		t.Fatalf("body items: %d", len(fd.Body.Items))
	}
	ret, ok := fd.Body.Items[0].(*ReturnStmt)
	if !ok {
		t.Fatalf("got %T", fd.Body.Items[0])
	}
	bin, ok := ret.Value.(*Binary)
	if !ok || bin.Op != BAdd {
		t.Errorf("return value: %#v", ret.Value)
	}
}

func TestParseStructSharing(t *testing.T) {
	f := parse(t, `
		struct st { int x; char *name; };
		struct st a, b;
		struct st *p;
	`)
	var types []*Type
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok {
			types = append(types, v.Type)
		}
	}
	if len(types) != 3 {
		t.Fatalf("got %d vars", len(types))
	}
	sa, sb := types[0].Struct, types[1].Struct
	if sa == nil || sa != sb {
		t.Error("a and b do not share the struct definition")
	}
	if types[2].Kind != TPointer || types[2].Elem.Struct != sa {
		t.Error("p does not point to the shared struct")
	}
	if len(sa.Fields) != 2 || sa.Fields[1].Type.String() != "ptr(char)" {
		t.Errorf("fields: %+v", sa.Fields)
	}
	if !sa.Complete {
		t.Error("struct incomplete after definition")
	}
}

func TestParseIncompleteAndSelfRefStruct(t *testing.T) {
	f := parse(t, `
		struct node;
		struct node { int v; struct node *next; };
		struct list { struct node *head; };
	`)
	var node *StructType
	for _, d := range f.Decls {
		if td, ok := d.(*TagDecl); ok && td.Type.Struct != nil && td.Type.Struct.Tag == "node" {
			node = td.Type.Struct
		}
	}
	if node == nil {
		t.Fatal("node not found")
	}
	if !node.Complete {
		t.Error("node incomplete")
	}
	if node.Fields[1].Type.Elem.Struct != node {
		t.Error("self reference does not share definition")
	}
}

func TestParseUnionAndEnum(t *testing.T) {
	f := parse(t, `
		union u { int i; float f; };
		enum color { RED, GREEN = 5, BLUE };
		enum color c;
		union u uu;
	`)
	found := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *TagDecl:
			if d.Type.Struct != nil && d.Type.Struct.Union {
				found++
			}
			if d.Type.Kind == TEnum {
				found++
			}
		case *VarDecl:
			if d.Name == "c" && d.Type.Kind == TEnum {
				found++
			}
			if d.Name == "uu" && d.Type.Kind == TStruct && d.Type.Struct.Union {
				found++
			}
		}
	}
	if found != 4 {
		t.Errorf("found %d of 4 expected declarations", found)
	}
}

func TestEnumConstantsEvaluated(t *testing.T) {
	p := newParser("t.c", "enum e { A, B = 10, C, D = B + 5 }; int arr[D];")
	if err := p.next(); err != nil {
		t.Fatal(err)
	}
	var decls []Decl
	for p.tok.Kind != EOF {
		var err error
		if decls, err = p.parseExternalDecl(decls); err != nil {
			t.Fatal(err)
		}
	}
	wantConsts := map[string]int64{"A": 0, "B": 10, "C": 11, "D": 15}
	for name, want := range wantConsts {
		if got := p.enums[name]; got != want {
			t.Errorf("enum %s = %d, want %d", name, got, want)
		}
	}
	for _, d := range decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "arr" {
			if v.Type.ArrayLen != 15 {
				t.Errorf("arr length %d, want 15", v.Type.ArrayLen)
			}
		}
	}
}

func TestParseTypedef(t *testing.T) {
	f := parse(t, `
		typedef int *ip;
		ip c, d;
		typedef struct pair { int a, b; } pair_t;
		pair_t pp;
		typedef unsigned long size_type;
		size_type n;
	`)
	byName := map[string]*VarDecl{}
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok {
			byName[v.Name] = v
		}
	}
	if got := byName["c"].Type.String(); got != "ptr(int)" {
		t.Errorf("c: %s", got)
	}
	// Typedefs are macro-expanded: c and d have distinct type trees.
	if byName["c"].Type == byName["d"].Type {
		t.Error("c and d share a type tree; typedef must macro-expand")
	}
	// But struct definitions inside typedefs stay shared.
	if byName["pp"].Type.Struct == nil {
		t.Fatal("pp lost its struct")
	}
	if got := byName["n"].Type.String(); got != "unsigned long" {
		t.Errorf("n: %s", got)
	}
}

// TestDeclaratorsOwnTheirTypes checks that the declarators of one list
// (int *a, b;), of one typedef list, and each later use of a typedef
// own disjoint type trees, so marking one declaration's level const, as
// the const inference's re-annotation does, shows up nowhere else. Only
// struct definitions are shared.
func TestDeclaratorsOwnTheirTypes(t *testing.T) {
	f := parse(t, `
		typedef char *str, *pair[2];
		struct s { char *x, *y; } sa, *sp;
		char *a, *b, c;
		str u, v;
		str w;
		int f(str p, str q) {
			char *l1, *l2;
			str l3, l4;
			return 0;
		}
		enum e { E0, E1 } ea, eb;
	`)
	owner := map[*Type]string{}
	var claim func(name string, t *Type)
	claim = func(name string, typ *Type) {
		if typ == nil {
			return
		}
		if prev, ok := owner[typ]; ok {
			t.Errorf("%s and %s share the type node %s", prev, name, typ)
			return
		}
		owner[typ] = name
		claim(name, typ.Elem)
		claim(name, typ.Ret)
		for _, p := range typ.Params {
			claim(name+"."+p.Name, p.Type)
		}
	}
	decls := map[string]*Type{}
	var visit func(d Decl)
	visit = func(d Decl) {
		switch d := d.(type) {
		case *VarDecl:
			decls[d.Name] = d.Type
		case *TypedefDecl:
			decls[d.Name] = d.Type
		case *FuncDecl:
			decls[d.Name] = d.Type
			for _, it := range d.Body.Items {
				if ds, ok := it.(*DeclStmt); ok {
					for _, d := range ds.Decls {
						visit(d)
					}
				}
			}
		}
	}
	for _, d := range f.Decls {
		visit(d)
	}
	for name, typ := range decls {
		claim(name, typ)
	}
	if st := decls["sa"].Struct; st == nil || decls["sp"].Elem.Struct != st {
		t.Error("sa and *sp do not share their struct definition")
	} else {
		for _, fd := range st.Fields {
			claim("field "+fd.Name, fd.Type)
		}
	}

	// Marking a level const leaves every sibling and later use alone.
	decls["a"].Elem.Quals.Const = true
	decls["u"].Elem.Quals.Const = true
	decls["str"].Elem.Quals.Const = true
	for _, name := range []string{"b", "v", "w", "l1", "l2", "l3", "l4"} {
		if decls[name].Elem.Quals.Const {
			t.Errorf("const marked on a sibling or typedef use shows in %s", name)
		}
	}
	if decls["c"].Quals.Const || decls["f"].Params[0].Type.Elem.Quals.Const || decls["pair"].Elem.Elem.Quals.Const {
		t.Error("const marked on a sibling shows in c, f's parameter or pair")
	}
}

func TestParseStatements(t *testing.T) {
	f := parse(t, `
		int f(int n) {
			int i, sum = 0;
			for (i = 0; i < n; i++) sum += i;
			while (sum > 100) { sum /= 2; }
			do { sum--; } while (sum > 50);
			if (sum == 50) return sum; else sum = 0;
			switch (n) {
			case 0: return 1;
			case 1:
			case 2: sum = 2; break;
			default: break;
			}
			{ int shadow; shadow = 1; sum += shadow; }
			lbl: sum++;
			if (sum < 1000) goto lbl;
			for (;;) break;
			;
			return sum;
		}
	`)
	fd := f.Decls[0].(*FuncDecl)
	kinds := map[string]bool{}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch s := s.(type) {
		case *Block:
			kinds["block"] = true
			for _, it := range s.Items {
				walk(it)
			}
		case *DeclStmt:
			kinds["decl"] = true
		case *ForStmt:
			kinds["for"] = true
			walk(s.Body)
		case *WhileStmt:
			kinds["while"] = true
			walk(s.Body)
		case *DoWhileStmt:
			kinds["do"] = true
			walk(s.Body)
		case *IfStmt:
			kinds["if"] = true
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *SwitchStmt:
			kinds["switch"] = true
			walk(s.Body)
		case *CaseStmt:
			kinds["case"] = true
			walk(s.Stmt)
		case *LabelStmt:
			kinds["label"] = true
			walk(s.Stmt)
		case *GotoStmt:
			kinds["goto"] = true
		case *BreakStmt:
			kinds["break"] = true
		case *ContinueStmt:
			kinds["continue"] = true
		case *ReturnStmt:
			kinds["return"] = true
		case *ExprStmt:
			kinds["expr"] = true
		case *EmptyStmt:
			kinds["empty"] = true
		}
	}
	walk(fd.Body)
	for _, k := range []string{"block", "decl", "for", "while", "do", "if", "switch", "case", "label", "goto", "break", "return", "expr", "empty"} {
		if !kinds[k] {
			t.Errorf("statement kind %q not parsed", k)
		}
	}
}

func TestParseExpressions(t *testing.T) {
	f := parse(t, `
		struct s { int f; };
		int g(struct s *p, int a[], char *str) {
			int x = a[2] + p->f * 3 - (-1);
			x = x << 2 | x >> 1 & 7 ^ 2;
			x = x && 1 || 0;
			x = x < 1 ? p->f : a[0];
			x += sizeof(int) + sizeof x;
			x = (int)3.5;
			x = *str++ + str[1];
			x = (x, x + 1);
			(&x, *(&x));
			x = !x + ~x + -x + +x;
			++x; --x; x++; x--;
			x %= 3; x &= 1; x |= 2; x ^= 3; x <<= 1; x >>= 1; x *= 2; x /= 2; x -= 1;
			return g(p, a, "lit" "eral");
		}
	`)
	fd, ok := f.Decls[1].(*FuncDecl)
	if !ok || fd.Name != "g" {
		t.Fatal("g not parsed")
	}
	// Find the concatenated string literal.
	found := false
	var walkE func(Expr)
	walkS := func(s Stmt) {}
	walkE = func(e Expr) {
		switch e := e.(type) {
		case *StrLit:
			if e.Text == `"literal"` {
				found = true
			}
		case *Call:
			walkE(e.Fn)
			for _, a := range e.Args {
				walkE(a)
			}
		}
	}
	_ = walkS
	for _, it := range fd.Body.Items {
		if r, ok := it.(*ReturnStmt); ok {
			walkE(r.Value)
		}
	}
	if !found {
		t.Error("adjacent string literals not concatenated")
	}
}

func TestCastVsParen(t *testing.T) {
	f := parse(t, `
		typedef int myint;
		int h(int y) {
			int a = (myint)y;    /* cast via typedef */
			int b = (y) + 1;     /* parenthesized expr */
			char *p = (char *)0; /* pointer cast */
			return a + b + (int)*p;
		}
	`)
	fd := f.Decls[1].(*FuncDecl)
	ds := fd.Body.Items[0].(*DeclStmt)
	v := ds.Decls[0].(*VarDecl)
	if _, ok := v.Init.(*Cast); !ok {
		t.Errorf("a's initializer is %T, want *Cast", v.Init)
	}
	ds2 := fd.Body.Items[1].(*DeclStmt)
	v2 := ds2.Decls[0].(*VarDecl)
	if _, ok := v2.Init.(*Cast); ok {
		t.Error("(y)+1 parsed as a cast")
	}
	ds3 := fd.Body.Items[2].(*DeclStmt)
	v3 := ds3.Decls[0].(*VarDecl)
	c, ok := v3.Init.(*Cast)
	if !ok {
		t.Fatalf("p's initializer is %T", v3.Init)
	}
	if c.To.String() != "ptr(char)" {
		t.Errorf("cast type %s", c.To)
	}
}

func TestVariadicAndVoidParams(t *testing.T) {
	f := parse(t, `
		int printf(const char *fmt, ...);
		int nop(void);
		int bare();
	`)
	fns := map[string]*FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			fns[fd.Name] = fd
		}
	}
	if !fns["printf"].Type.Variadic {
		t.Error("printf not variadic")
	}
	if got := fns["printf"].Type.Params[0].Type.String(); got != "ptr(const char)" {
		t.Errorf("printf fmt: %s", got)
	}
	if len(fns["nop"].Type.Params) != 0 {
		t.Error("nop has params")
	}
	if len(fns["bare"].Type.Params) != 0 {
		t.Error("bare has params")
	}
}

func TestArrayParamDecay(t *testing.T) {
	f := parse(t, `void sort(int base[], int n);`)
	fd := f.Decls[0].(*FuncDecl)
	if got := fd.Type.Params[0].Type.String(); got != "ptr(int)" {
		t.Errorf("array param type %s, want ptr(int)", got)
	}
}

func TestInitializers(t *testing.T) {
	f := parse(t, `
		int a[3] = {1, 2, 3};
		struct p { int x, y; } pt = { 4, 5 };
		char *words[] = { "a", "b" };
	`)
	v := f.Decls[0].(*VarDecl)
	il, ok := v.Init.(*InitList)
	if !ok || len(il.Items) != 3 {
		t.Errorf("a init: %#v", v.Init)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int",
		"int x",
		"int x = ;",
		"int f( {",
		"struct { int x; }",
		"int f(void) { return }",
		"int f(void) { if (1) }",
		"@",
		"int f(void) { x ]; }",
		"typedef; int x;",
		"struct s { int x; }; struct s { int y; };", // redefinition
	}
	// Nesting past the parser's depth limit is a syntax error, not a
	// goroutine stack overflow.
	const deep = 200000
	nested := func(open, mid, close string) string {
		return strings.Repeat(open, deep) + mid + strings.Repeat(close, deep)
	}
	tooDeep := []string{
		"int x = " + nested("(", "1", ")") + ";",
		"int f(void) " + nested("{", "", "}"),
		"int " + nested("(", "*x", ")") + ";",
		"int x[1] = " + nested("{", "1", "}") + ";",
		"int f(int x) { return " + strings.Repeat("-", deep) + "x; }",
		"int f(int x) { return " + strings.Repeat("(int)", deep) + "x; }",
		"int f(int x) { " + strings.Repeat("x = ", deep) + "x; }",
		"int f(int x) { return " + strings.Repeat("x ? x : ", deep) + "x; }",
		"int f(int x) { " + strings.Repeat("if (x) x; else ", deep) + "x; }",
	}
	for _, src := range cases {
		if _, err := Parse("t.c", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	for _, src := range tooDeep {
		_, err := Parse("t.c", src)
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("Parse(%.40q...) = %v, want a nesting-depth error", src, err)
		}
	}
	// Deep but reasonable nesting still parses.
	if _, err := Parse("t.c", "int x = "+strings.Repeat("(", 1000)+"1"+strings.Repeat(")", 1000)+";"); err != nil {
		t.Errorf("1000 nested parentheses: %v", err)
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	for src, want := range map[string]string{
		"int x;\nint y = @;": "file.c:2:",
		// Declarators that name nothing where a name is required.
		"int *;":         `file.c:1:6: expected declarator, found ';' ";"`,
		"int (*)(void);": "file.c:1:14: expected declared name",
	} {
		_, err := Parse("file.c", src)
		if err == nil {
			t.Errorf("Parse(%q): no error", src)
		} else if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
}

func TestRealisticProgram(t *testing.T) {
	// A miniature of the paper's benchmark style: string utilities with
	// const, structs, typedefs, library calls.
	f := parse(t, `
		typedef unsigned long size_t;
		extern size_t strlen(const char *s);
		extern char *strcpy(char *dst, const char *src);
		extern void *malloc(size_t n);

		struct buffer {
			char *data;
			size_t len;
			size_t cap;
		};

		static struct buffer *buf_new(size_t cap) {
			struct buffer *b = (struct buffer *)malloc(sizeof(struct buffer));
			b->data = (char *)malloc(cap);
			b->len = 0;
			b->cap = cap;
			return b;
		}

		int buf_append(struct buffer *b, const char *s) {
			size_t n = strlen(s);
			if (b->len + n >= b->cap)
				return -1;
			strcpy(b->data + b->len, s);
			b->len += n;
			return 0;
		}

		const char *buf_view(struct buffer *b) {
			return b->data;
		}

		int main(int argc, char **argv) {
			struct buffer *b = buf_new(128);
			int i;
			for (i = 1; i < argc; i++) {
				if (buf_append(b, argv[i]) < 0)
					break;
			}
			return (int)strlen(buf_view(b));
		}
	`)
	var fns []string
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
			fns = append(fns, fd.Name)
		}
	}
	want := []string{"buf_new", "buf_append", "buf_view", "main"}
	if len(fns) != len(want) {
		t.Fatalf("functions: %v", fns)
	}
	for i := range want {
		if fns[i] != want[i] {
			t.Errorf("fn %d = %s, want %s", i, fns[i], want[i])
		}
	}
}

func TestTypeHelpers(t *testing.T) {
	if !NewPrim(TInt, "int").IsInteger() || !NewPrim(TChar, "char").IsInteger() {
		t.Error("IsInteger broken")
	}
	if NewPrim(TFloat, "double").IsInteger() {
		t.Error("double is integer")
	}
	if !NewPointer(NewPrim(TVoid, "void")).IsScalar() {
		t.Error("pointer not scalar")
	}
	if NewPrim(TVoid, "void").IsScalar() {
		t.Error("void is scalar")
	}
	var nilT *Type
	if nilT.Clone() != nil {
		t.Error("nil Clone")
	}
	if nilT.String() != "<nil>" {
		t.Error("nil String")
	}
	// Clone shares struct definitions but copies the spine.
	st := &StructType{Tag: "s", Complete: true}
	orig := NewPointer(&Type{Kind: TStruct, Struct: st})
	cl := orig.Clone()
	if cl == orig || cl.Elem == orig.Elem {
		t.Error("Clone shared spine")
	}
	if cl.Elem.Struct != st {
		t.Error("Clone copied struct definition")
	}
}

func TestStorageClassString(t *testing.T) {
	cases := map[StorageClass]string{
		SCNone: "", SCTypedef: "typedef", SCExtern: "extern",
		SCStatic: "static", SCAuto: "auto", SCRegister: "register",
	}
	for sc, want := range cases {
		if sc.String() != want {
			t.Errorf("%d: %q != %q", sc, sc.String(), want)
		}
	}
}
