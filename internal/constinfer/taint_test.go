package constinfer

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfront"
)

const taintPrelude = `analysis taint
getenv(_) -> tainted
system(untainted)
printf(untainted, ...)
`

// taintDemo routes an environment variable through a local, a defined
// helper, and a second local before it reaches the system() sink:
// a five-hop constraint chain ending at the prelude sink.
const taintDemo = `
extern char *getenv(const char *name);
extern int system(const char *cmd);

static char *pass(char *s) { return s; }

int run(void) {
    char *cmd = getenv("CMD");
    char *through = pass(cmd);
    return system(through);
}
`

func taintSuite(t *testing.T, names ...string) *analysis.Suite {
	t.Helper()
	pre, err := analysis.ParsePrelude("taint.q", taintPrelude)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := analysis.NewSuite(names, []*analysis.Prelude{pre})
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestTaintConflictFlow(t *testing.T) {
	rep, err := AnalyzeSource("t.c", taintDemo, Options{Suite: taintSuite(t, "taint")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Conflicts) != 1 {
		t.Fatalf("%d conflicts, want 1: %+v", len(rep.Conflicts), rep.Conflicts)
	}
	u := rep.Conflicts[0]
	if !strings.Contains(u.Con.Why.Msg, `argument 1 of "system" must be untainted`) {
		t.Errorf("sink reason = %q", u.Con.Why.Msg)
	}
	if len(u.Path) != 5 {
		t.Fatalf("flow path has %d hops, want 5: %+v", len(u.Path), u.Path)
	}
	wantMsgs := []string{
		`result of "getenv" is tainted (prelude)`,
		"initializer",
		"function argument",
		"returned value",
		"initializer",
	}
	for i, c := range u.Path {
		if c.Why.Msg != wantMsgs[i] {
			t.Errorf("hop %d = %q, want %q", i, c.Why.Msg, wantMsgs[i])
		}
	}
	// The taint suite tracks no const positions.
	if rep.Total != 0 {
		t.Errorf("taint-only run classified %d const positions", rep.Total)
	}
}

// TestTaintCleanProgram: literals and prelude-free locals never trip the
// sink.
func TestTaintCleanProgram(t *testing.T) {
	rep, err := AnalyzeSource("t.c", `
extern int system(const char *cmd);
int run(void) {
    char *cmd = "ls";
    return system(cmd);
}
`, Options{Suite: taintSuite(t, "taint")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Conflicts) != 0 {
		t.Fatalf("clean program has conflicts: %v", rep.Conflicts[0].Error())
	}
}

// TestConstVerdictInvariance: adding the taint analysis to the suite
// must not change a single const verdict — the product lattice keeps the
// components independent through the shared constraint pass.
func TestConstVerdictInvariance(t *testing.T) {
	src := taintDemo + `
int mylen(char *s) {
    int n = 0;
    while (s[n]) n++;
    return n;
}
void set(char *p) { *p = 0; }
`
	constOnly, err := AnalyzeSource("t.c", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	both, err := AnalyzeSource("t.c", src, Options{Suite: taintSuite(t, "const", "taint")})
	if err != nil {
		t.Fatal(err)
	}
	if len(constOnly.Positions) != len(both.Positions) {
		t.Fatalf("position counts differ: %d vs %d", len(constOnly.Positions), len(both.Positions))
	}
	for i, p := range constOnly.Positions {
		q := both.Positions[i]
		if p.Func != q.Func || p.Param != q.Param || p.Depth != q.Depth || p.Verdict != q.Verdict {
			t.Errorf("verdict drift at %s/%s depth %d: %v vs %v", p.Func, p.Param, p.Depth, p.Verdict, q.Verdict)
		}
	}
	if constOnly.Inferred != both.Inferred || constOnly.Declared != both.Declared || constOnly.Total != both.Total {
		t.Errorf("summary drift: const-only %+v vs combined %+v", constOnly, both)
	}
	// The combined run finds the taint conflict the const-only run can't.
	if len(constOnly.Conflicts) != 0 || len(both.Conflicts) != 1 {
		t.Errorf("conflicts: const-only %d, combined %d; want 0 and 1",
			len(constOnly.Conflicts), len(both.Conflicts))
	}
}

// TestTaintJobsDeterminism: conflict reports, including the extracted
// flow paths, are byte-identical across fresh analyses for every value
// of ConstrainContext's jobs argument, which has no effect.
func TestTaintJobsDeterminism(t *testing.T) {
	f, err := cfront.Parse("t.c", taintDemo)
	if err != nil {
		t.Fatal(err)
	}
	render := func(jobs int) string {
		a := NewAnalysis([]*cfront.File{f}, Options{Suite: taintSuite(t, "const", "taint")})
		a.Prepare()
		a.ConstrainContext(context.Background(), jobs)
		var b strings.Builder
		for _, u := range a.SolveSystem() {
			b.WriteString(u.Explain(a.Set()))
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := render(1)
	if !strings.Contains(want, "⊑") {
		t.Fatalf("no flow rendered:\n%s", want)
	}
	for _, jobs := range []int{2, 4, 8} {
		if got := render(jobs); got != want {
			t.Errorf("jobs=%d output differs\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}
