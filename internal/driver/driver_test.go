package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/core"
)

const demo = `
int mylen(char *s) {
    int n = 0;
    while (s[n]) n++;
    return n;
}
void set(char *p) { *p = 0; }
int partial(int c) {
    int x;
    if (c) x = 1;
    return x;
}
`

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{}, []Source{TextSource("demo.c", demo)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasErrors() {
		t.Fatalf("unexpected errors: %v", res.Diagnostics)
	}
	rep := res.Report
	if rep == nil || rep.Functions != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Inferred != 1 {
		t.Errorf("inferred = %d, want 1 (mylen)", rep.Inferred)
	}
}

func TestRunCollectsAllFrontEndErrors(t *testing.T) {
	res, err := Run(Config{}, []Source{
		TextSource("a.c", "int broken( {"),
		TextSource("b.c", demo),
		TextSource("c.c", "void g( {"),
		{Path: "/nonexistent/driver-test-missing.c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Error("report built despite front-end errors")
	}
	errs := res.Errors()
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3 (two parse + one load): %v", len(errs), errs)
	}
	if errs[0].Stage != StageParse || errs[1].Stage != StageParse || errs[2].Stage != StageLoad {
		t.Errorf("stages = %v %v %v", errs[0].Stage, errs[1].Stage, errs[2].Stage)
	}
	// Diagnostics stay in input order: a.c before c.c.
	if !strings.Contains(errs[0].Message, "a.c") || !strings.Contains(errs[1].Message, "c.c") {
		t.Errorf("diagnostics out of order: %v", errs)
	}
}

// A panic in one file's C parse, on its pool goroutine, becomes that
// file's parse diagnostic; the other files still parse.
func TestRunRecoversCParsePanic(t *testing.T) {
	defer func(orig func(string, string) (*cfront.File, error)) { cParse = orig }(cParse)
	cParse = func(path, src string) (*cfront.File, error) {
		if path == "boom.c" {
			panic("index out of range")
		}
		return cfront.Parse(path, src)
	}
	res, err := Run(Config{}, []Source{
		TextSource("ok.c", demo),
		TextSource("boom.c", demo),
		TextSource("bad.c", "void g( {"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Error("report built despite a parser panic")
	}
	errs := res.Errors()
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2 (the panic and bad.c): %v", len(errs), errs)
	}
	want := "boom.c: internal error in the C parser: index out of range"
	if errs[0].Stage != StageParse || errs[0].Pos != "boom.c" || errs[0].Message != want {
		t.Errorf("panic diagnostic = %+v, want parse-stage %q", errs[0], want)
	}
	if !strings.Contains(errs[1].Message, "bad.c") {
		t.Errorf("second diagnostic = %v, want bad.c's syntax error", errs[1])
	}
	if len(res.Files) != 3 || res.Files[0] == nil || res.Files[1] != nil {
		t.Errorf("parsed files = %v, want ok.c parsed and boom.c nil", res.Files)
	}
}

// TestRunRecoversConstrainPanic: a panic while the Constrain stage walks
// a body must not kill the process, in any mode. The stage fails with an
// error naming the stage and the function, and the next run is
// unaffected.
func TestRunRecoversConstrainPanic(t *testing.T) {
	defer constinfer.SetBodyHookForTest(func(name string) {
		if name == "set" {
			panic("index out of range")
		}
	})()
	for _, opts := range []constinfer.Options{{}, {Poly: true}} {
		res, err := Run(Config{Options: opts}, []Source{TextSource("demo.c", demo)})
		want := "constrain: internal error in function set: index out of range"
		if err == nil || err.Error() != want {
			t.Errorf("opts %+v: err = %v, want %q", opts, err, want)
		}
		if res != nil {
			t.Errorf("opts %+v: got a result despite the panic", opts)
		}
	}
	if res, err := Run(Config{}, []Source{TextSource("ok.c", "int f(int *p) { return *p; }")}); err != nil || res.Report == nil {
		t.Errorf("run after the panics: err %v, report %v", err, res)
	}
}

// TestRunCancelledInConstrain: a run cancelled while the C engine walks
// bodies stops after the component it is in, in either mode, and fails
// with the context's error. The first component is the mutually
// recursive pair a0/a1; forty more functions follow it.
func TestRunCancelledInConstrain(t *testing.T) {
	var src strings.Builder
	src.WriteString("int a0(int *p) { return a1(p); }\nint a1(int *p) { return *p ? a0(p) : 0; }\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "void f%02d(char *p) { *p = %d; }\n", i, i)
	}
	src.WriteString("int g = 1;\n")
	for _, opts := range []constinfer.Options{{}, {Poly: true}} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen []string
		restore := constinfer.SetBodyHookForTest(func(name string) {
			seen = append(seen, name)
			cancel()
		})
		res, err := RunContext(ctx, Config{Options: opts}, []Source{TextSource("many.c", src.String())})
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("opts %+v: RunContext = %v, %v; want nil, context.Canceled", opts, res, err)
		}
		slices.Sort(seen)
		if !slices.Equal(seen, []string{"a0", "a1"}) {
			t.Errorf("opts %+v: bodies walked = %v, want the first component's, a0 and a1", opts, seen)
		}
	}
}

func TestRunConflictDiagnostics(t *testing.T) {
	res, err := Run(Config{}, []Source{
		TextSource("bad.c", "void f(const char *s) { *s = 0; }"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasErrors() {
		t.Fatal("const violation not reported")
	}
	d := res.Errors()[0]
	if d.Stage != StageSolve || d.Code != "qualifier-conflict" {
		t.Errorf("diagnostic = %+v", d)
	}
	if len(d.Flow) == 0 {
		t.Error("conflict diagnostic has no flow path")
	}
	if !strings.Contains(d.String(), "const") {
		t.Errorf("rendered diagnostic lacks qualifier name: %s", d)
	}
}

// TestRunFileAttribution checks that positions name the file they come
// from when a program spans files: AST positions are in-file line:col,
// and the engine adds each unit's name where a position leaves the tree
// (constraint provenance, report positions, suggestions, warnings and
// syntax errors).
func TestRunFileAttribution(t *testing.T) {
	a := TextSource("a.c", `void set(const char *p);
int use(const char *s)
{
    set(s);
    return 0;
}
`)
	b := TextSource("b.c", `void set(char *p)
{
    *p = 0;
}
int peek(char *q, int c)
{
    int x;
    if (c) x = *q;
    return x;
}
`)
	res, err := Run(Config{Uninit: true}, []Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	errs := res.Errors()
	if len(errs) != 1 || errs[0].Code != "qualifier-conflict" {
		t.Fatalf("errors = %v, want one qualifier conflict", errs)
	}
	var got []string
	got = append(got, errs[0].Pos)
	for _, f := range errs[0].Flow {
		got = append(got, f.Pos)
	}
	// The write in b.c's definition of set, reached from the const
	// declared in a.c and passed at a.c's call.
	if want := []string{"b.c:3:8", "a.c:2:9", "a.c:4:9"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("conflict at %v, want %v\n%s", got, want, errs[0])
	}
	var warn []string
	for _, d := range res.Diagnostics {
		if d.Stage == StageInit {
			warn = append(warn, d.Pos)
		}
	}
	if strings.Join(warn, " ") != "b.c:9:12" {
		t.Errorf("uninit warnings at %v, want [b.c:9:12]", warn)
	}
	pos := map[string]string{}
	for _, p := range res.Report.Positions {
		pos[p.Func+"."+p.Param] = p.Pos.String()
	}
	for key, want := range map[string]string{"use.s": "a.c:2:21", "set.p": "b.c:1:16", "peek.q": "b.c:5:16"} {
		if pos[key] != want {
			t.Errorf("position %s at %q, want %q", key, pos[key], want)
		}
	}
	for _, s := range res.Report.Suggested {
		if s.Func == "peek" && s.Pos.String() != "b.c:5:5" {
			t.Errorf("suggestion for peek at %s, want b.c:5:5", s.Pos)
		}
	}

	// A syntax error in the second file names that file.
	res, err = Run(Config{}, []Source{a, TextSource("c.c", "int f(void)\n{\n    return 1 +;\n}\n")})
	if err != nil {
		t.Fatal(err)
	}
	errs = res.Errors()
	if len(errs) != 1 || errs[0].Pos != "c.c" || errs[0].Message != `c.c:3:15: expected expression, found ';' ";"` {
		t.Errorf("syntax errors = %v, want one at c.c:3:15", errs)
	}
}

func TestRunUninitWarnings(t *testing.T) {
	res, err := Run(Config{Uninit: true}, []Source{TextSource("demo.c", demo)})
	if err != nil {
		t.Fatal(err)
	}
	var warn []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Stage == StageInit {
			warn = append(warn, d)
		}
	}
	if len(warn) != 1 || warn[0].Severity != SevWarning {
		t.Fatalf("uninit warnings = %v", warn)
	}
	if !strings.Contains(warn[0].Message, `"x"`) {
		t.Errorf("warning does not name x: %s", warn[0].Message)
	}
	// Warnings are not errors: the report still exists.
	if res.Report == nil || res.HasErrors() {
		t.Error("warnings should not fail the run")
	}
}

// TestRunDeterministicAcrossJobs: the per-position classification and the
// whole JSON report are identical across fresh runs for every Jobs value,
// which has no effect.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	srcs := []Source{TextSource("demo.c", demo)}
	for _, opts := range []constinfer.Options{{}, {Poly: true}} {
		base, err := Run(Config{Options: opts, Jobs: 1}, srcs)
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalJSON(t, base)
		for _, jobs := range []int{2, 8} {
			got, err := Run(Config{Options: opts, Jobs: jobs}, srcs)
			if err != nil {
				t.Fatal(err)
			}
			if g := canonicalJSON(t, got); g != want {
				t.Errorf("opts %+v jobs %d: report diverges\nwant %s\ngot  %s", opts, jobs, want, g)
			}
		}
	}
}

// TestRunSolveJobsDeterministic pins the no-op contract of the
// retired solver-parallelism knob: SolveJobs is still accepted, and a
// run that sets it renders the same JSON report, timings aside, as one
// that does not.
func TestRunSolveJobsDeterministic(t *testing.T) {
	cfg := benchgen.ParallelCorpus(5000, 7)
	srcs := []Source{TextSource(cfg.Name+".c", benchgen.Generate(cfg))}
	base, err := Run(Config{}, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if base.HasErrors() {
		t.Fatalf("corpus does not analyze cleanly: %v", base.Errors())
	}
	got, err := Run(Config{SolveJobs: 4}, srcs)
	if err != nil {
		t.Fatal(err)
	}
	base.Timings, got.Timings = Timings{}, Timings{} // wall clock may differ
	want, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, want) {
		t.Errorf("SolveJobs: 4 changed the report\nwant %s\ngot  %s", want, g)
	}
}

// canonicalJSON renders the report with timings stripped (they are the
// only legitimately nondeterministic field).
func canonicalJSON(t *testing.T, res *Result) string {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "timings")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunFilesReusesParse(t *testing.T) {
	mono, err := Run(Config{}, []Source{TextSource("demo.c", demo)})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := RunFiles(Config{Options: constinfer.Options{Poly: true}}, mono.Files)
	if err != nil {
		t.Fatal(err)
	}
	if poly.Report == nil || poly.Report.Total != mono.Report.Total {
		t.Fatalf("poly report = %+v", poly.Report)
	}
	if poly.Timings.Parse != 0 {
		t.Error("RunFiles should not spend time parsing")
	}
	if poly.Report.Inferred < mono.Report.Inferred {
		t.Errorf("poly inferred %d < mono %d", poly.Report.Inferred, mono.Report.Inferred)
	}
}

func TestTimingsRecorded(t *testing.T) {
	res, err := Run(Config{}, []Source{TextSource("demo.c", demo)})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Timings
	if ts.Parse <= 0 || ts.Constrain <= 0 || ts.Solve <= 0 || ts.Classify <= 0 {
		t.Errorf("missing stage timings: %+v", ts)
	}
	if ts.Analysis() < ts.Constrain {
		t.Errorf("Analysis() = %v < Constrain %v", ts.Analysis(), ts.Constrain)
	}
}

func TestRunLambdaAcceptAndEval(t *testing.T) {
	res := RunLambda(LambdaConfig{Spec: core.NonzeroSpec(), Eval: true},
		"test", "100 / (@nonzero (3 - 1))")
	if res.HasErrors() {
		t.Fatalf("errors: %v", res.Diagnostics)
	}
	if res.Type == nil || res.Checker == nil {
		t.Fatal("no type inferred")
	}
	if res.Value == nil {
		t.Fatal("no value evaluated")
	}
	if res.Timings.Parse <= 0 || res.Timings.Constrain <= 0 {
		t.Errorf("missing timings: %+v", res.Timings)
	}
}

func TestRunLambdaRejectsConflict(t *testing.T) {
	res := RunLambda(LambdaConfig{Spec: core.ConstSpec()},
		"test", "(@const ref 1) := 2")
	if !res.HasErrors() {
		t.Fatal("const violation not reported")
	}
	d := res.Errors()[0]
	if d.Code != "qualifier-conflict" || d.Stage != StageSolve {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestRunLambdaParseAndTypeErrors(t *testing.T) {
	res := RunLambda(LambdaConfig{Spec: core.ConstSpec()}, "test", "let x =")
	if !res.HasErrors() || res.Errors()[0].Stage != StageParse {
		t.Errorf("parse failure not reported: %v", res.Diagnostics)
	}
	res = RunLambda(LambdaConfig{Spec: core.ConstSpec()}, "test", "1 2")
	if !res.HasErrors() {
		t.Errorf("expected an error for application of a non-function: %v", res.Diagnostics)
	}
}

// TestRunRejectsPolyRec: the retired Options.PolyRec fails the run with
// an error and no result, in both entry points.
func TestRunRejectsPolyRec(t *testing.T) {
	cfg := Config{Options: constinfer.Options{Poly: true, PolyRec: true}}
	res, err := Run(cfg, []Source{TextSource("demo.c", demo)})
	if err == nil || !strings.Contains(err.Error(), "PolyRec") {
		t.Errorf("Run: err = %v, want one naming PolyRec", err)
	}
	if res != nil {
		t.Errorf("Run: got a result %+v", res)
	}
	f, err := cfront.Parse("demo.c", demo)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := RunFiles(cfg, []*cfront.File{f}); err == nil || res != nil {
		t.Errorf("RunFiles: err = %v, result %v; want an error and no result", err, res)
	}
}

// TestConfigCheck: Check accepts the valid configs and refuses, naming
// the culprit, each invalid one.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // "" = valid
	}{
		{Config{}, ""},
		{Config{Lang: "c", Options: constinfer.Options{Poly: true}, Uninit: true, Analyses: []string{"const", "taint"}}, ""},
		{Config{Options: constinfer.Options{PolyRec: true}}, "PolyRec"},
		{Config{Lang: "cobol"}, `unknown language "cobol" (registered: `},
		{Config{Analyses: []string{"const", "bogus"}}, `unknown analysis "bogus" (registered: const, `},
	} {
		err := tc.cfg.Check()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: Check() = %v; want %q", tc.cfg, err, tc.want)
		}
	}
}

func TestRunNoSources(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("Run with no sources should error")
	}
	if _, err := RunFiles(Config{}, nil); err == nil {
		t.Error("RunFiles with no files should error")
	}
}

// TestStageNames pins the stage names diagnostics print and the JSON
// report's "stage" member carries.
func TestStageNames(t *testing.T) {
	for s, want := range map[Stage]string{
		StageLoad: "load", StageParse: "parse", StageBuild: "build",
		StageConstrain: "constrain", StageSolve: "solve",
		StageInit: "initcheck", StageEval: "eval", StageEval + 1: "Stage(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Stage(%d) = %q, want %q", int(s), got, want)
		}
	}
}
