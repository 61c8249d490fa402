package constinfer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/constraint"
)

func analyze(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	rep, err := AnalyzeSource("test.c", src, opts)
	if err != nil {
		t.Fatalf("analyze: %v\nsource:\n%s", err, src)
	}
	return rep
}

func mustClean(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Conflicts) > 0 {
		t.Fatalf("unexpected conflict: %v", rep.Conflicts[0].Error())
	}
}

// find returns the classified position for a function/param (param "" =
// result) at depth.
func find(t *testing.T, rep *Report, fn, param string, depth int) PositionResult {
	t.Helper()
	for _, p := range rep.Positions {
		if p.Func == fn && p.Param == param && p.Depth == depth {
			return p
		}
	}
	t.Fatalf("position %s/%s depth %d not found in %+v", fn, param, depth, rep.Positions)
	return PositionResult{}
}

func TestReadOnlyParamIsConstable(t *testing.T) {
	rep := analyze(t, `
		int mylen(char *s) {
			int n = 0;
			while (*s) { s++; n++; }
			return n;
		}`, Options{})
	mustClean(t, rep)
	p := find(t, rep, "mylen", "s", 0)
	if p.Verdict != Either {
		t.Errorf("read-only parameter verdict = %v, want either", p.Verdict)
	}
	if rep.Total != 1 || rep.Inferred != 1 || rep.Declared != 0 {
		t.Errorf("counters: total=%d inferred=%d declared=%d", rep.Total, rep.Inferred, rep.Declared)
	}
}

func TestWrittenParamIsNotConst(t *testing.T) {
	rep := analyze(t, `
		void setz(char *s) { *s = 0; }`, Options{})
	mustClean(t, rep)
	p := find(t, rep, "setz", "s", 0)
	if p.Verdict != MustNotConst {
		t.Errorf("written parameter verdict = %v, want not-const", p.Verdict)
	}
	if rep.Inferred != 0 {
		t.Errorf("inferred = %d, want 0", rep.Inferred)
	}
}

func TestDeclaredConstIsMustConst(t *testing.T) {
	rep := analyze(t, `
		int mylen(const char *s) {
			int n = 0;
			while (s[n]) n++;
			return n;
		}`, Options{})
	mustClean(t, rep)
	p := find(t, rep, "mylen", "s", 0)
	if p.Verdict != MustConst {
		t.Errorf("declared const verdict = %v, want must-const", p.Verdict)
	}
	if !p.Declared || rep.Declared != 1 {
		t.Error("declared count wrong")
	}
	if rep.Inferred != 1 {
		t.Errorf("inferred = %d, want 1", rep.Inferred)
	}
}

func TestWriteThroughDeclaredConstConflicts(t *testing.T) {
	rep := analyze(t, `
		void bad(const char *s) { *s = 0; }`, Options{})
	if len(rep.Conflicts) == 0 {
		t.Fatal("writing through const parameter produced no conflict")
	}
	msg := rep.Conflicts[0].Error()
	if !strings.Contains(msg, "const") {
		t.Errorf("conflict message: %s", msg)
	}
}

func TestIncrementForbidsConstOnCell(t *testing.T) {
	// s++ writes the parameter cell, not the contents; the contents stay
	// const-able (paper: consts go on pointers' referents).
	rep := analyze(t, `
		int f(char *s) { s++; return *s; }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "s", 0); p.Verdict != Either {
		t.Errorf("verdict = %v, want either", p.Verdict)
	}
}

func TestFlowThroughCallMono(t *testing.T) {
	rep := analyze(t, `
		void set(char *p) { *p = 1; }
		void caller(char *q) { set(q); }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "set", "p", 0); p.Verdict != MustNotConst {
		t.Errorf("set.p = %v", p.Verdict)
	}
	if p := find(t, rep, "caller", "q", 0); p.Verdict != MustNotConst {
		t.Errorf("caller.q = %v, want not-const (flows into a writer)", p.Verdict)
	}
}

func TestFlowThroughCallPolyStillDetectsWrite(t *testing.T) {
	// Polymorphism must not hide real writes: the callee's write bound is
	// replayed at each instantiation.
	rep := analyze(t, `
		void set(char *p) { *p = 1; }
		void caller(char *q) { set(q); }`, Options{Poly: true})
	mustClean(t, rep)
	if p := find(t, rep, "caller", "q", 0); p.Verdict != MustNotConst {
		t.Errorf("caller.q = %v, want not-const even with polymorphism", p.Verdict)
	}
}

// TestIdentityPolymorphism is the paper's central example (Sections 1 and
// 3.2, and the source of Poly > Mono in Table 2): a flow-through function
// used by both a writer and a reader. Monomorphically everything is
// forced non-const; polymorphically the identity function and the reader
// stay const-able.
func TestIdentityPolymorphism(t *testing.T) {
	src := `
		char *ident(char *s) { return s; }
		void writer(char *buf) { char *t = ident(buf); *t = 0; }
		int reader(char *msg) { char *u = ident(msg); return *u; }`

	mono := analyze(t, src, Options{})
	mustClean(t, mono)
	poly := analyze(t, src, Options{Poly: true})
	mustClean(t, poly)

	// Mono: the single instance of ident links writer and reader.
	for _, c := range []struct {
		fn, param string
	}{{"ident", "s"}, {"ident", ""}, {"writer", "buf"}, {"reader", "msg"}} {
		if p := find(t, mono, c.fn, c.param, 0); p.Verdict != MustNotConst {
			t.Errorf("mono %s/%s = %v, want not-const", c.fn, c.param, p.Verdict)
		}
	}
	// Poly: only the writer's path is forced.
	if p := find(t, poly, "writer", "buf", 0); p.Verdict != MustNotConst {
		t.Errorf("poly writer.buf = %v, want not-const", p.Verdict)
	}
	for _, c := range []struct {
		fn, param string
	}{{"ident", "s"}, {"ident", ""}, {"reader", "msg"}} {
		if p := find(t, poly, c.fn, c.param, 0); p.Verdict != Either {
			t.Errorf("poly %s/%s = %v, want either", c.fn, c.param, p.Verdict)
		}
	}
	if poly.Inferred <= mono.Inferred {
		t.Errorf("poly inferred %d not greater than mono %d", poly.Inferred, mono.Inferred)
	}
}

func TestIdentityPolymorphismSimplified(t *testing.T) {
	src := `
		char *ident(char *s) { return s; }
		void writer(char *buf) { char *t = ident(buf); *t = 0; }
		int reader(char *msg) { char *u = ident(msg); return *u; }`
	rep := analyze(t, src, Options{Poly: true})
	mustClean(t, rep)
	ref := analyzeReference(mustParseFiles(t, src), Options{Poly: true})
	mustClean(t, ref)
	for _, r := range []struct {
		name string
		rep  *Report
	}{{"projected", rep}, {"reference", ref}} {
		if p := find(t, r.rep, "reader", "msg", 0); p.Verdict != Either {
			t.Errorf("%s poly reader.msg = %v, want either", r.name, p.Verdict)
		}
		if p := find(t, r.rep, "writer", "buf", 0); p.Verdict != MustNotConst {
			t.Errorf("%s poly writer.buf = %v, want not-const", r.name, p.Verdict)
		}
	}
}

func TestLibraryConservatism(t *testing.T) {
	rep := analyze(t, `
		extern unsigned long strlen(const char *s);
		extern char *strcpy(char *dst, const char *src);
		int f(char *a, char *b) {
			strcpy(a, b);
			return (int)strlen(b);
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "a", 0); p.Verdict != MustNotConst {
		t.Errorf("a = %v, want not-const (library may write)", p.Verdict)
	}
	if p := find(t, rep, "f", "b", 0); p.Verdict != Either {
		t.Errorf("b = %v, want either (library params declared const)", p.Verdict)
	}
}

func TestImplicitDeclarationConservatism(t *testing.T) {
	rep := analyze(t, `
		int f(char *a) { mystery(a); return 0; }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "a", 0); p.Verdict != MustNotConst {
		t.Errorf("a = %v, want not-const (undeclared callee)", p.Verdict)
	}
}

func TestCastSevers(t *testing.T) {
	rep := analyze(t, `
		void f(char *p) {
			char *q = (char *)p;
			*q = 0;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "p", 0); p.Verdict != Either {
		t.Errorf("p = %v, want either (explicit cast severs flow)", p.Verdict)
	}
}

func TestSection41Example(t *testing.T) {
	// The paper's Section 4.1 program: x = y with y const; typechecks
	// because y's const sits on the ref, not the int.
	rep := analyze(t, `
		int x;
		const int y = 1;
		int f(void) { x = y; return x; }`, Options{})
	mustClean(t, rep)
}

func TestPointerToConstAssignment(t *testing.T) {
	// Section 4.1's second example: int *x; const int *y; y = x; is
	// accepted under the standard ref subtyping.
	rep := analyze(t, `
		void f(void) {
			int v;
			int *x = &v;
			const int *y;
			y = x;
		}`, Options{})
	mustClean(t, rep)
}

func TestDoublePointerPositions(t *testing.T) {
	rep := analyze(t, `
		int count(char **v) {
			int n = 0;
			while (v[n]) n++;
			return n;
		}`, Options{})
	mustClean(t, rep)
	if rep.Total != 2 {
		t.Fatalf("total positions = %d, want 2 (two pointer levels)", rep.Total)
	}
	if p := find(t, rep, "count", "v", 0); p.Verdict != Either {
		t.Errorf("level 0 = %v", p.Verdict)
	}
	if p := find(t, rep, "count", "v", 1); p.Verdict != Either {
		t.Errorf("level 1 = %v", p.Verdict)
	}
}

func TestReturnPositions(t *testing.T) {
	rep := analyze(t, `
		static char buffer[100];
		char *get(void) { return buffer; }`, Options{})
	mustClean(t, rep)
	p := find(t, rep, "get", "", 0)
	if p.Index != -1 {
		t.Errorf("result index = %d, want -1", p.Index)
	}
}

func TestStructFieldSharing(t *testing.T) {
	// Writing through one variable's field forbids const on every
	// variable's copy of that field (they share the declaration).
	src := `
		struct st { char *p; };
		void w(struct st *a) { *(a->p) = 1; }
		int r(struct st *b) { return *(b->p); }`
	a := NewAnalysis(mustParseFiles(t, src), Options{})
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, rep)
	// The shared field's content qualifier must be forbidden const.
	var st *cfront.StructType
	for s := range a.tr.structVals {
		st = s
	}
	if st == nil {
		t.Fatal("struct not translated")
	}
	fieldRef := a.tr.structVals[st].shared.fields["p"]
	inner := fieldRef.Elem // the char* value stored in the field
	if inner.Kind != RRef {
		t.Fatalf("field content kind %v", inner.Kind)
	}
	if !a.sys.Forbidden(inner.Q.Var(), "const") {
		t.Error("write through a->p did not forbid const on the shared field")
	}
}

func TestStructAssignmentTopLevelOnly(t *testing.T) {
	// a = b for same-struct variables is fine; only the assigned cell
	// must be non-const.
	rep := analyze(t, `
		struct st { int x; };
		void f(void) {
			struct st a, b;
			a = b;
		}`, Options{})
	mustClean(t, rep)
}

func TestSelfReferentialStruct(t *testing.T) {
	rep := analyze(t, `
		struct node { int v; struct node *next; };
		int sum(struct node *n) {
			int s = 0;
			while (n) { s += n->v; n = n->next; }
			return s;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "sum", "n", 0); p.Verdict != Either {
		t.Errorf("n = %v, want either", p.Verdict)
	}
}

func TestMutualRecursionSCC(t *testing.T) {
	src := `
		int even(int n);
		int odd(int n) { if (n == 0) return 0; return even(n - 1); }
		int even(int n) { if (n == 0) return 1; return odd(n - 1); }
		int entry(char *s) { return even(*s); }`
	for _, opts := range []Options{{}, {Poly: true}} {
		rep := analyze(t, src, opts)
		mustClean(t, rep)
		if rep.Functions != 3 {
			t.Errorf("opts %+v: functions = %d, want 3", opts, rep.Functions)
		}
		// odd and even must share one SCC: 2 SCCs total.
		if rep.SCCs != 2 {
			t.Errorf("opts %+v: SCCs = %d, want 2", opts, rep.SCCs)
		}
	}
}

// TestRecursivePointerFunction pins what polymorphism over the function
// dependence graph (Section 4.3) gives a self-recursive function: skip's
// own component is analyzed monomorphically, but use and look lie in
// other components and instantiate its scheme afresh, so the write
// through skip's result in use does not reach look's argument. The
// monomorphic system shares one signature and loses look.
func TestRecursivePointerFunction(t *testing.T) {
	src := `
		char *skip(char *s) {
			if (*s == 0) return s;
			return skip(s + 1);
		}
		void use(char *a) { *skip(a) = 0; }
		int look(char *b) { return *skip(b); }`
	mono := analyze(t, src, Options{})
	mustClean(t, mono)
	if p := find(t, mono, "look", "b", 0); p.Verdict != MustNotConst {
		t.Errorf("mono look.b = %v, want not-const", p.Verdict)
	}
	poly := analyze(t, src, Options{Poly: true})
	mustClean(t, poly)
	if p := find(t, poly, "look", "b", 0); p.Verdict != Either {
		t.Errorf("poly look.b = %v, want either", p.Verdict)
	}
	if p := find(t, poly, "use", "a", 0); p.Verdict != MustNotConst {
		t.Errorf("poly use.a = %v, want not-const", p.Verdict)
	}
}

func TestGlobalsMonomorphic(t *testing.T) {
	// A global pointer is shared; writing through it in one function
	// forbids const everywhere it flows.
	rep := analyze(t, `
		char *g;
		void w(void) { *g = 0; }
		void install(char *p) { g = p; }`, Options{Poly: true})
	mustClean(t, rep)
	if p := find(t, rep, "install", "p", 0); p.Verdict != MustNotConst {
		t.Errorf("install.p = %v, want not-const (flows into written global)", p.Verdict)
	}
}

func TestStringLiteralsUnconstrained(t *testing.T) {
	rep := analyze(t, `
		extern int puts(const char *s);
		int f(void) { return puts("hello"); }
		char *g(void) { return "world"; }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "g", "", 0); p.Verdict != Either {
		t.Errorf("string literal result = %v, want either", p.Verdict)
	}
}

func TestVarargsIgnored(t *testing.T) {
	rep := analyze(t, `
		extern int printf(const char *fmt, ...);
		int f(char *buf, int n) {
			return printf("%s %d", buf, n);
		}`, Options{})
	mustClean(t, rep)
	// buf passed as a variadic extra argument: ignored, stays const-able.
	if p := find(t, rep, "f", "buf", 0); p.Verdict != Either {
		t.Errorf("variadic argument = %v, want either", p.Verdict)
	}
}

func TestWrongArityIgnored(t *testing.T) {
	rep := analyze(t, `
		int two(int a, int b) { return a + b; }
		int f(char *x) { return two(1, 2, x); }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "x", 0); p.Verdict != Either {
		t.Errorf("excess argument = %v, want either", p.Verdict)
	}
}

func TestMultipleFiles(t *testing.T) {
	f1 := mustParse(t, "a.c", `
		void set(char *p) { *p = 1; }`)
	f2 := mustParse(t, "b.c", `
		extern void set(char *p);
		void caller(char *q) { set(q); }`)
	rep, err := Analyze([]*cfront.File{f1, f2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, rep)
	// Cross-file: set is defined in a.c, so the definition wins over the
	// extern prototype and the write propagates.
	if p := find(t, rep, "caller", "q", 0); p.Verdict != MustNotConst {
		t.Errorf("cross-file caller.q = %v, want not-const", p.Verdict)
	}
}

func TestTypedefExpansionIndependence(t *testing.T) {
	// typedef int *ip; ip c, d; — c and d share no qualifiers (Section
	// 4.2): writing through c must not force d non-const.
	rep := analyze(t, `
		typedef char *cp;
		void f(cp c, cp d) {
			*c = 1;
			if (*d) return;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "f", "c", 0); p.Verdict != MustNotConst {
		t.Errorf("c = %v, want not-const", p.Verdict)
	}
	if p := find(t, rep, "f", "d", 0); p.Verdict != Either {
		t.Errorf("d = %v, want either (typedef must not share)", p.Verdict)
	}
}

func TestConditionalMerge(t *testing.T) {
	rep := analyze(t, `
		char *pick(int c, char *a, char *b) {
			return c ? a : b;
		}
		void user(char *x, char *y) {
			*pick(1, x, y) = 0;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "user", "x", 0); p.Verdict != MustNotConst {
		t.Errorf("x = %v, want not-const (write through conditional)", p.Verdict)
	}
	if p := find(t, rep, "user", "y", 0); p.Verdict != MustNotConst {
		t.Errorf("y = %v, want not-const (write through conditional)", p.Verdict)
	}
}

func TestArraysAndIndexing(t *testing.T) {
	rep := analyze(t, `
		void fill(int *a, int n) {
			int i;
			for (i = 0; i < n; i++) a[i] = 0;
		}
		int total(int *a, int n) {
			int i, s = 0;
			for (i = 0; i < n; i++) s += a[i];
			return s;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "fill", "a", 0); p.Verdict != MustNotConst {
		t.Errorf("fill.a = %v", p.Verdict)
	}
	if p := find(t, rep, "total", "a", 0); p.Verdict != Either {
		t.Errorf("total.a = %v", p.Verdict)
	}
}

func TestAddressOfAndPointerWrite(t *testing.T) {
	rep := analyze(t, `
		void inc(int *p) { (*p)++; }
		int f(void) {
			int x = 0;
			inc(&x);
			return x;
		}`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "inc", "p", 0); p.Verdict != MustNotConst {
		t.Errorf("inc.p = %v, want not-const", p.Verdict)
	}
}

func TestMonoSubsetOfPoly(t *testing.T) {
	// On any program, poly must infer at least as many const positions.
	programs := []string{
		`char *id(char *s) { return s; }
		 void a(char *x) { *id(x) = 0; }
		 int b(char *y) { return *id(y); }`,
		`void set(char *p) { *p = 1; }
		 void get(const char *p);
		 int f(char *a, char *b) { set(a); return *b; }`,
		`struct s { char *f; };
		 void w(struct s *x) { *(x->f) = 0; }
		 int r(struct s *y) { return *(y->f); }`,
	}
	for i, src := range programs {
		mono := analyze(t, src, Options{})
		poly := analyze(t, src, Options{Poly: true})
		if poly.Inferred < mono.Inferred {
			t.Errorf("program %d: poly %d < mono %d", i, poly.Inferred, mono.Inferred)
		}
		if poly.Total != mono.Total || poly.Declared != mono.Declared {
			t.Errorf("program %d: totals differ between modes", i)
		}
	}
}

func TestFuncPointers(t *testing.T) {
	rep := analyze(t, `
		int apply(int (*f)(int), int x) { return f(x); }
		int twice(int v) { return v * 2; }
		int main(void) { return apply(twice, 21); }`, Options{Poly: true})
	mustClean(t, rep)
	if rep.Functions != 3 {
		t.Errorf("functions = %d", rep.Functions)
	}
}

func TestVerdictString(t *testing.T) {
	if MustConst.String() != "must-const" || MustNotConst.String() != "not-const" || Either.String() != "either" {
		t.Error("verdict strings")
	}
	if !strings.Contains(Verdict(9).String(), "9") {
		t.Error("unknown verdict")
	}
}

func mustParse(t *testing.T, name, src string) *cfront.File {
	t.Helper()
	f, err := cfront.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustParseFiles(t *testing.T, src string) []*cfront.File {
	t.Helper()
	return []*cfront.File{mustParse(t, "test.c", src)}
}

func TestPointerToConstStructProtectsFields(t *testing.T) {
	// Writing a member through a struct pointer forbids const on the
	// pointed-to struct (C's pointer-to-const semantics).
	rep := analyze(t, `
		struct st { int tag; };
		void set_tag(struct st *s, int v) { s->tag = v; }
		int get_tag(struct st *s) { return s->tag; }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "set_tag", "s", 0); p.Verdict != MustNotConst {
		t.Errorf("set_tag.s = %v, want not-const", p.Verdict)
	}
	if p := find(t, rep, "get_tag", "s", 0); p.Verdict != Either {
		t.Errorf("get_tag.s = %v, want either", p.Verdict)
	}
	// And writing through a declared-const struct pointer conflicts.
	rep = analyze(t, `
		struct st { int tag; };
		void bad(const struct st *s) { ((struct st *)s)->tag = 1; }`, Options{})
	mustClean(t, rep) // cast severs: fine
	rep = analyze(t, `
		struct st { int tag; };
		void bad(const struct st *s) { s->tag = 1; }`, Options{})
	if len(rep.Conflicts) == 0 {
		t.Error("member write through const struct pointer accepted")
	}
}

func TestDotMemberWriteGuardsVariable(t *testing.T) {
	rep := analyze(t, `
		struct st { int tag; };
		void f(void) {
			const struct st s;
			struct st t;
			t.tag = 1;
		}`, Options{})
	mustClean(t, rep)
	rep = analyze(t, `
		struct st { int tag; };
		void f(void) {
			const struct st s;
			s.tag = 1;
		}`, Options{})
	if len(rep.Conflicts) == 0 {
		t.Error("member write to const struct variable accepted")
	}
}

func TestSuggestions(t *testing.T) {
	rep := analyze(t, `
		int mylen(char *s) {
			int n = 0;
			while (s[n]) n++;
			return n;
		}
		void set(char *p) { *p = 0; }
		int already(const char *q) { return *q; }
		int deep(char **v) { return v[0][0]; }`, Options{})
	mustClean(t, rep)
	byFunc := map[string]Suggestion{}
	for _, s := range rep.Suggested {
		byFunc[s.Func] = s
	}
	// mylen's parameter can be const.
	sg, ok := byFunc["mylen"]
	if !ok {
		t.Fatal("no suggestion for mylen")
	}
	if sg.New != "int mylen(const char *s)" {
		t.Errorf("mylen suggestion = %q", sg.New)
	}
	if sg.Old != "int mylen(char *s)" || sg.Added != 1 {
		t.Errorf("mylen old/added = %q/%d", sg.Old, sg.Added)
	}
	// set writes; no suggestion.
	if _, ok := byFunc["set"]; ok {
		t.Error("suggestion for a writer")
	}
	// already is fully declared; no suggestion.
	if _, ok := byFunc["already"]; ok {
		t.Error("suggestion for an already-const function")
	}
	// deep gets both levels.
	sg, ok = byFunc["deep"]
	if !ok {
		t.Fatal("no suggestion for deep")
	}
	if sg.New != "int deep(const char *const *v)" {
		t.Errorf("deep suggestion = %q", sg.New)
	}
	if sg.Added != 2 {
		t.Errorf("deep added = %d", sg.Added)
	}
}

func TestSuggestionsReturnPosition(t *testing.T) {
	rep := analyze(t, `
		static char buffer[64];
		char *view(void) { return buffer; }`, Options{})
	mustClean(t, rep)
	if len(rep.Suggested) != 1 {
		t.Fatalf("suggestions: %+v", rep.Suggested)
	}
	if got := rep.Suggested[0].New; got != "const char *view(void)" {
		t.Errorf("result suggestion = %q", got)
	}
	// The suggested declaration must itself parse.
	if _, err := cfront.Parse("s.c", rep.Suggested[0].New+";"); err != nil {
		t.Errorf("suggestion does not parse: %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	a := NewAnalysis(mustParseFiles(t, `
		char *ident(char *s) { return s; }
		void w(char *p) { *p = 0; }`), Options{Poly: true})
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, rep)
	s, ok := a.SchemeString("ident")
	if !ok {
		t.Fatal("no scheme for ident")
	}
	for _, want := range []string{"∀", "ident :", "fn(", "ref(char)", "⊑"} {
		if !strings.Contains(s, want) {
			t.Errorf("scheme %q missing %q", s, want)
		}
	}
	// The writer's scheme shows its ¬const upper bound.
	s, ok = a.SchemeString("w")
	if !ok {
		t.Fatal("no scheme for w")
	}
	if !strings.Contains(s, "¬const") {
		t.Errorf("writer scheme lacks the write bound: %q", s)
	}
	// Unknown and library functions have no scheme.
	if _, ok := a.SchemeString("nothere"); ok {
		t.Error("scheme for unknown function")
	}
	// Monomorphic runs have no schemes.
	m := NewAnalysis(mustParseFiles(t, `int f(char *s) { return *s; }`), Options{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.SchemeString("f"); ok {
		t.Error("scheme in monomorphic mode")
	}
}

func TestInitializers(t *testing.T) {
	// Braced initializers: array elements, struct fields, nested lists,
	// and the flow they induce.
	rep := analyze(t, `
		struct pt { int x; int y; };
		struct wrap { struct pt p; char *label; };
		int f(char *tag) {
			int a[3] = { 1, 2, 3 };
			int m[2][2] = { { 1, 2 }, { 3, 4 } };
			struct pt q = { 5, 6 };
			struct wrap w = { { 7, 8 }, tag };
			char *names[2] = { "a", tag };
			return a[0] + m[1][1] + q.x + w.p.y + (names[0] ? 1 : 0);
		}
		void scribble(struct wrap *w) { *(w->label) = 0; }`, Options{})
	mustClean(t, rep)
	// tag flows into the shared label field, which scribble writes
	// through: tag must not be const.
	if p := find(t, rep, "f", "tag", 0); p.Verdict != MustNotConst {
		t.Errorf("tag = %v, want not-const (flows into written field)", p.Verdict)
	}
}

func TestLateCompletedStruct(t *testing.T) {
	// A struct used through a pointer before its definition appears: the
	// field table is completed on demand.
	rep := analyze(t, `
		struct late;
		int peek(struct late *p);
		struct late { int v; };
		int peek(struct late *p) { return p->v; }
		void poke(struct late *p) { p->v = 1; }`, Options{})
	mustClean(t, rep)
	if p := find(t, rep, "peek", "p", 0); p.Verdict != Either {
		t.Errorf("peek.p = %v", p.Verdict)
	}
	if p := find(t, rep, "poke", "p", 0); p.Verdict != MustNotConst {
		t.Errorf("poke.p = %v", p.Verdict)
	}
}

// TestStructUsedBeforeDefinition pins the verdicts when a struct's
// fields are read and written through pointers in bodies and globals
// that appear before its definition.
func TestStructUsedBeforeDefinition(t *testing.T) {
	rep := analyze(t, `
		struct node;
		struct node *head;
		void set(struct node *n, int *v);
		int get(struct node *n) { return *n->val; }
		void set(struct node *n, int *v) { n->val = v; *head->val = 0; }
		struct node { int *val; struct node *next; };
		void link(struct node *a, struct node *b) { a->next = b; }`, Options{})
	mustClean(t, rep)
	for _, c := range []struct {
		fn, param string
		depth     int
		want      Verdict
	}{
		{"get", "n", 0, Either},
		{"set", "n", 0, MustNotConst},
		// v flows into the shared field, which set writes through head.
		{"set", "v", 0, MustNotConst},
		{"link", "a", 0, MustNotConst},
		{"link", "b", 0, Either},
	} {
		if p := find(t, rep, c.fn, c.param, c.depth); p.Verdict != c.want {
			t.Errorf("%s.%s depth %d = %v, want %v", c.fn, c.param, c.depth, p.Verdict, c.want)
		}
	}
}

// TestConditionalOverFunctionPointers pins ?: over two pointers to
// function pointers: the merged value gets a fresh copy of the function
// type, and a call through it still reaches the function it holds.
func TestConditionalOverFunctionPointers(t *testing.T) {
	for _, poly := range []bool{false, true} {
		rep := analyze(t, `
			void put(char *p) { *p = 0; }
			void pick(int c, void (**a)(char *), void (**b)(char *), char *s) {
				(*(c ? a : b))(s);
			}
			void user(char *s) {
				void (*f)(char *) = put;
				void (*g)(char *) = put;
				pick(1, &f, &g, s);
			}`, Options{Poly: poly})
		mustClean(t, rep)
		for _, c := range []struct {
			fn, param string
			want      Verdict
		}{
			{"pick", "a", Either},
			{"pick", "b", Either},
			{"user", "s", MustNotConst},
		} {
			if p := find(t, rep, c.fn, c.param, 0); p.Verdict != c.want {
				t.Errorf("poly=%v: %s.%s = %v, want %v", poly, c.fn, c.param, p.Verdict, c.want)
			}
		}
	}
}

func TestRTypeString(t *testing.T) {
	a := NewAnalysis(mustParseFiles(t, `
		struct s { int x; };
		int f(char **v, struct s *p, int (*cb)(int, ...)) { return 0; }`), Options{})
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, rep)
	sig := a.funcs["f"].sig
	s := sig.String()
	for _, want := range []string{"fn(", "ref(", "char", "struct s", "..."} {
		if !strings.Contains(s, want) {
			t.Errorf("RType.String %q missing %q", s, want)
		}
	}
	var nilT *RType
	if nilT.String() != "<nil>" {
		t.Error("nil RType string")
	}
	if !strings.Contains((&RType{Kind: RKind(9)}).String(), "9") {
		t.Error("unknown RKind string")
	}
}

func TestFunctionSubtypingThroughPointers(t *testing.T) {
	// Storing functions into function-pointer cells exercises the
	// contravariant parameter rule of the analysis subtype relation.
	rep := analyze(t, `
		int reader(const char *s) { return *s; }
		int writerish(char *s) { *s = 1; return 0; }
		int dispatch(int which, char *buf) {
			int (*fp)(char *);
			fp = writerish;
			if (which)
				return fp(buf);
			return reader(buf);
		}`, Options{})
	mustClean(t, rep)
	// buf reaches writerish through the pointer: not const.
	if p := find(t, rep, "dispatch", "buf", 0); p.Verdict != MustNotConst {
		t.Errorf("dispatch.buf = %v", p.Verdict)
	}
}

// TestPolyConflictKeepsProvenance: a callee that writes through a local
// copy of its parameter, called with a const argument. The conflict sits
// on an instance of the callee's projected scheme; it must still report
// the original write's position and message and the callee's internal
// step, exactly as the full-fragment reference does (only κ labels may
// differ).
func TestPolyConflictKeepsProvenance(t *testing.T) {
	const src = `void w(char *p) { char *q = p; *q = 0; } void g(const char *s) { w(s); }`
	files := []*cfront.File{mustParse(t, "w.c", src)}
	rep, err := Analyze(files, Options{Poly: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := analyzeReference([]*cfront.File{mustParse(t, "w.c", src)}, Options{Poly: true})
	type step struct{ pos, msg string }
	describe := func(u *constraint.Unsat) []step {
		out := []step{{u.Con.Why.Pos.String(), u.Con.Why.Msg}}
		for _, c := range u.Path {
			out = append(out, step{c.Why.Pos.String(), c.Why.Msg})
		}
		return out
	}
	want := []step{
		{"w.c:1:35", "assignment target is written"},
		{"w.c:1:49", "declared const"},
		{"w.c:1:68", "function argument"},
		{"w.c:1:29", "initializer"},
	}
	for _, r := range []struct {
		name string
		rep  *Report
	}{{"projected", rep}, {"reference", ref}} {
		if len(r.rep.Conflicts) != 1 {
			t.Fatalf("%s: %d conflicts, want 1", r.name, len(r.rep.Conflicts))
		}
		if got := describe(r.rep.Conflicts[0]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: conflict (sink, flow...) = %v\nwant %v", r.name, got, want)
		}
	}
}

// TestEnvScopes pins the lexical scoping of body analysis: an inner
// declaration shadows a parameter only inside its block, a same-scope
// redeclaration replaces the earlier binding, and no parameter binding
// survives its body into the next body or into a global initializer
// (every unknown name there is an implicit global). Callees are walked
// before callers, so leaker is walked before reader, and last, which
// calls every other function, is the final body before the global
// initializers.
func TestEnvScopes(t *testing.T) {
	const src = `
		char *gp = kept;
		void shadow(char *p) {
			{ char *p = 0; *p = 'x'; }
		}
		void after(char *p) {
			{ char *p = 0; p = 0; }
			*p = 'x';
		}
		void redecl(char *p, char *q) {
			char *r = p;
			char *r = q;
			*r = 'x';
		}
		void leaker(char *held) { }
		void reader(char *q) { leaker(q); *held = 'x'; *gp = 'x'; }
		void last(char *kept) { shadow(0); after(0); redecl(0, 0); reader(0); }`
	for _, opts := range []Options{{}, {Poly: true}} {
		rep := analyze(t, src, opts)
		mustClean(t, rep)
		for _, c := range []struct {
			fn, param string
			want      Verdict
		}{
			{"shadow", "p", Either},       // the write goes through the inner p
			{"after", "p", MustNotConst},  // the block has closed
			{"redecl", "p", Either},       // r was redeclared ...
			{"redecl", "q", MustNotConst}, // ... to alias q
			{"leaker", "held", Either},    // reader's held is not leaker's
			{"last", "kept", Either},      // gp's kept is not last's
		} {
			if got := find(t, rep, c.fn, c.param, 0).Verdict; got != c.want {
				t.Errorf("poly=%v: %s.%s = %v, want %v", opts.Poly, c.fn, c.param, got, c.want)
			}
		}
	}
}
