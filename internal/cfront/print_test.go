package cfront

import (
	"strings"
	"testing"
)

func TestTypeDecl(t *testing.T) {
	cases := []struct {
		src  string // a declaration to parse
		name string // the declared name to find
		want string // expected TypeDecl rendering
	}{
		{"int x;", "x", "int x"},
		{"const int y;", "y", "const int y"},
		{"char *s;", "s", "char *s"},
		{"const char *cs;", "cs", "const char *cs"},
		{"char * const pc;", "pc", "char *const pc"},
		{"const char * const cpc;", "cpc", "const char *const cpc"},
		{"int a[10];", "a", "int a[10]"},
		{"int m[3][4];", "m", "int m[3][4]"},
		{"int *pa[5];", "pa", "int *pa[5]"},
		{"int (*ap)[5];", "ap", "int (*ap)[5]"},
		{"int f(int a, char *b);", "f", "int f(int a, char *b)"},
		{"int (*fp)(int);", "fp", "int (*fp)(int)"},
		{"int (*fparr[4])(char);", "fparr", "int (*fparr[4])(char)"},
		{"char **argv;", "argv", "char **argv"},
		{"int (*(*ff)(int))(char);", "ff", "int (*(*ff)(int))(char)"},
		{"unsigned long n;", "n", "unsigned long n"},
		{"int printf(const char *fmt, ...);", "printf", "int printf(const char *fmt, ...)"},
		{"void nop(void);", "nop", "void nop(void)"},
	}
	for _, c := range cases {
		f := parse(t, c.src)
		var typ *Type
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *VarDecl:
				if d.Name == c.name {
					typ = d.Type
				}
			case *FuncDecl:
				if d.Name == c.name {
					typ = d.Type
				}
			}
		}
		if typ == nil {
			t.Fatalf("%s: %q not found", c.src, c.name)
		}
		got := TypeDecl(c.name, typ)
		if got != c.want {
			t.Errorf("TypeDecl(%s) = %q, want %q", c.src, got, c.want)
		}
		// The rendering must itself reparse to the same type.
		f2, err := Parse("rt.c", got+";")
		if err != nil {
			t.Errorf("TypeDecl output %q does not reparse: %v", got, err)
			continue
		}
		typ2 := declType(f2.Decls[0])
		sm := map[*StructType]*StructType{}
		if !equalTypes(typ, typ2, sm) {
			t.Errorf("TypeDecl round trip changed the type: %q", got)
		}
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"a = b = c", "a = b = c"},
		{"a ? b : c", "a ? b : c"},
		{"*p++", "*p++"},
		{"(*p)++", "(*p)++"},
		{"- -x", "-(-x)"},
		{"&*p", "&*p"},
		{"a[i + 1]", "a[i + 1]"},
		{"f(a, b)(c)", "f(a, b)(c)"},
		{"p->f.g", "p->f.g"},
		{"(char *)0", "(char *)0"},
		{"sizeof(int)", "sizeof(int)"},
		{"sizeof x", "sizeof x"},
		{"a << 2 | b", "a << 2 | b"},
		{"(a | b) & c", "(a | b) & c"},
		{"a && b || c", "a && b || c"},
		{"a %= 3", "a %= 3"},
		{"x, y", "x, y"},
		{"!(a == b)", "!(a == b)"},
		{"-x + +y", "-x + +y"},
	}
	for _, c := range cases {
		// Wrap in a statement to parse.
		f := parse(t, "int g(int a, int b, int c, int i, int x, int y, int *p) { "+c.src+"; }")
		fd := f.Decls[0].(*FuncDecl)
		es, ok := fd.Body.Items[0].(*ExprStmt)
		if !ok {
			t.Fatalf("%s: not an expression statement", c.src)
		}
		if got := ExprString(es.X); got != c.want {
			t.Errorf("ExprString(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestPrintFileRoundTrip: print a parsed file and reparse it; the two
// ASTs must be structurally equal.
func TestPrintFileRoundTrip(t *testing.T) {
	srcs := []string{
		`
		typedef unsigned long size_t;
		extern size_t strlen(const char *s);
		struct buf { char *data; size_t len; struct buf *next; };
		static int use(struct buf *b) {
			int n = 0;
			while (b) {
				n += (int)strlen(b->data);
				b = b->next;
			}
			return n;
		}
		int main(int argc, char **argv) {
			struct buf b;
			int i;
			b.data = argv[0];
			b.len = 0;
			b.next = 0;
			for (i = 1; i < argc; i++)
				b.len += 1;
			if (argc > 2) return use(&b);
			else return 0;
		}`,
		`
		enum mode { OFF, ON = 5, AUTO };
		int pick(int m) {
			switch (m) {
			case 0: return OFF;
			case 1: return ON;
			default: break;
			}
			do { m--; } while (m > 0);
			lbl: m += 2;
			if (m < 10) goto lbl;
			return AUTO;
		}`,
		`
		typedef struct pair { int a; int b; } pair_t;
		pair_t origin = { 0, 0 };
		int arr[3] = { 1, 2, 3 };
		int sum(pair_t *p) { return p->a + p->b; }`,
		`
		int (*dispatch(int k))(int) ;
		static int idf(int x) { return x; }
		int (*dispatch(int k))(int) { return idf; }
		int run(int v) { return dispatch(v)(v * 2); }`,
	}
	for i, src := range srcs {
		f1 := parse(t, src)
		printed := PrintFile(f1)
		f2, err := Parse("rt.c", printed)
		if err != nil {
			t.Errorf("case %d: printed file does not reparse: %v\n%s", i, err, printed)
			continue
		}
		if !equalFiles(f1, f2) {
			t.Errorf("case %d: round trip changed the AST\n--- printed ---\n%s", i, printed)
		}
		// Idempotence: printing the reparse gives identical text.
		printed2 := PrintFile(f2)
		if printed != printed2 {
			t.Errorf("case %d: printing not idempotent:\n%s\n---\n%s", i, printed, printed2)
		}
	}
}

// TestPrintBenchmarkRoundTrip round-trips a whole generated benchmark.
func TestPrintBenchmarkRoundTrip(t *testing.T) {
	// Use the realistic program from the parser test corpus instead of
	// importing benchgen (which would create an import cycle through this
	// package's tests); benchgen's own tests cover generated programs.
	f1 := parse(t, `
		typedef unsigned long size_t;
		extern size_t strlen(const char *s);
		extern char *strcpy(char *dst, const char *src);
		extern void *malloc(size_t n);
		struct buffer { char *data; size_t len; size_t cap; };
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
		}`)
	printed := PrintFile(f1)
	f2, err := Parse("rt.c", printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if !equalFiles(f1, f2) {
		t.Errorf("round trip changed the AST:\n%s", printed)
	}
}

// --- structural AST equality (test helper) ---

func equalFiles(a, b *File) bool {
	// Printing may emit struct definitions as extra TagDecls and omit
	// original TagDecls; compare declaration-by-name instead of by index
	// for functions/vars/typedefs, and struct shapes via the types.
	am, bm := declMap(a), declMap(b)
	if len(am) != len(bm) {
		return false
	}
	sm := map[*StructType]*StructType{}
	for name, da := range am {
		db, ok := bm[name]
		if !ok || !equalDecls(da, db, sm) {
			return false
		}
	}
	return true
}

func declMap(f *File) map[string]Decl {
	out := map[string]Decl{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *FuncDecl:
			// Definitions shadow prototypes.
			if prev, ok := out["f:"+d.Name].(*FuncDecl); !ok || prev.Body == nil {
				out["f:"+d.Name] = d
			}
		case *VarDecl:
			out["v:"+d.Name] = d
		case *TypedefDecl:
			out["t:"+d.Name] = d
		}
	}
	return out
}

func equalDecls(a, b Decl, sm map[*StructType]*StructType) bool {
	switch a := a.(type) {
	case *FuncDecl:
		b, ok := b.(*FuncDecl)
		if !ok || a.Name != b.Name || a.Storage != b.Storage || (a.Body == nil) != (b.Body == nil) {
			return false
		}
		if !equalTypes(a.Type, b.Type, sm) {
			return false
		}
		if a.Body != nil {
			return equalStmts(a.Body, b.Body, sm)
		}
		return true
	case *VarDecl:
		b, ok := b.(*VarDecl)
		if !ok || a.Name != b.Name || a.Storage != b.Storage || (a.Init == nil) != (b.Init == nil) {
			return false
		}
		if !equalTypes(a.Type, b.Type, sm) {
			return false
		}
		if a.Init != nil {
			return equalExprs(a.Init, b.Init)
		}
		return true
	case *TypedefDecl:
		b, ok := b.(*TypedefDecl)
		return ok && a.Name == b.Name && equalTypes(a.Type, b.Type, sm)
	default:
		return true
	}
}

func equalTypes(a, b *Type, sm map[*StructType]*StructType) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || a.Quals.Const != b.Quals.Const || a.Quals.Volatile != b.Quals.Volatile {
		return false
	}
	switch a.Kind {
	case TVoid, TChar, TInt, TFloat:
		return a.Spelling() == b.Spelling()
	case TPointer:
		return equalTypes(a.Elem, b.Elem, sm)
	case TArray:
		return a.ArrayLen() == b.ArrayLen() && equalTypes(a.Elem, b.Elem, sm)
	case TFunc:
		ap, bp := a.Params(), b.Params()
		if a.Variadic() != b.Variadic() || len(ap) != len(bp) {
			return false
		}
		for i := range ap {
			if ap[i].Name != bp[i].Name || !equalTypes(ap[i].Type, bp[i].Type, sm) {
				return false
			}
		}
		return equalTypes(a.Ret(), b.Ret(), sm)
	case TStruct:
		as, bs := a.Struct(), b.Struct()
		if mapped, ok := sm[as]; ok {
			return mapped == bs
		}
		sm[as] = bs
		if as.Union != bs.Union || as.Complete != bs.Complete || len(as.Fields) != len(bs.Fields) {
			return false
		}
		for i := range as.Fields {
			if as.Fields[i].Name != bs.Fields[i].Name ||
				!equalTypes(as.Fields[i].Type, bs.Fields[i].Type, sm) {
				return false
			}
		}
		return true
	case TEnum:
		return true // constants compared via usage
	default:
		return false
	}
}

func equalStmts(a, b Stmt, sm map[*StructType]*StructType) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	switch a := a.(type) {
	case *Block:
		b, ok := b.(*Block)
		if !ok || len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !equalStmts(a.Items[i], b.Items[i], sm) {
				return false
			}
		}
		return true
	case *DeclStmt:
		b, ok := b.(*DeclStmt)
		if !ok || len(a.Decls) != len(b.Decls) {
			return false
		}
		for i := range a.Decls {
			if !equalDecls(a.Decls[i], b.Decls[i], sm) {
				return false
			}
		}
		return true
	case *ExprStmt:
		b, ok := b.(*ExprStmt)
		return ok && equalExprs(a.X, b.X)
	case *EmptyStmt:
		_, ok := b.(*EmptyStmt)
		return ok
	case *IfStmt:
		b, ok := b.(*IfStmt)
		return ok && equalExprs(a.Cond, b.Cond) && equalStmts(a.Then, b.Then, sm) && equalStmts(a.Else, b.Else, sm)
	case *WhileStmt:
		b, ok := b.(*WhileStmt)
		return ok && equalExprs(a.Cond, b.Cond) && equalStmts(a.Body, b.Body, sm)
	case *DoWhileStmt:
		b, ok := b.(*DoWhileStmt)
		return ok && equalExprs(a.Cond, b.Cond) && equalStmts(a.Body, b.Body, sm)
	case *ForStmt:
		b, ok := b.(*ForStmt)
		return ok && equalStmts(a.Init, b.Init, sm) && equalOptExprs(a.Cond, b.Cond) &&
			equalOptExprs(a.Post, b.Post) && equalStmts(a.Body, b.Body, sm)
	case *ReturnStmt:
		b, ok := b.(*ReturnStmt)
		return ok && equalOptExprs(a.Value, b.Value)
	case *BreakStmt:
		_, ok := b.(*BreakStmt)
		return ok
	case *ContinueStmt:
		_, ok := b.(*ContinueStmt)
		return ok
	case *GotoStmt:
		b, ok := b.(*GotoStmt)
		return ok && a.Label == b.Label
	case *LabelStmt:
		b, ok := b.(*LabelStmt)
		return ok && a.Label == b.Label && equalStmts(a.Stmt, b.Stmt, sm)
	case *SwitchStmt:
		b, ok := b.(*SwitchStmt)
		return ok && equalExprs(a.Tag, b.Tag) && equalStmts(a.Body, b.Body, sm)
	case *CaseStmt:
		b, ok := b.(*CaseStmt)
		return ok && equalOptExprs(a.Value, b.Value) && equalStmts(a.Stmt, b.Stmt, sm)
	default:
		return false
	}
}

func equalOptExprs(a, b Expr) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return equalExprs(a, b)
}

func equalExprs(a, b Expr) bool {
	// Compare by printed form: the printer is deterministic and
	// normalizing, so this is precise enough for round trips.
	return ExprString(a) == ExprString(b)
}

func TestPrintedBenchmarkIsC(t *testing.T) {
	// Printing inserts no analysis artifacts: the printed text contains
	// no internal markers.
	f := parse(t, "struct s { int x; }; int f(struct s *p) { return p->x; }")
	out := PrintFile(f)
	for _, bad := range []string{"<anon", "?", "RKind"} {
		if strings.Contains(out, bad) {
			t.Errorf("printed output contains %q:\n%s", bad, out)
		}
	}
}
