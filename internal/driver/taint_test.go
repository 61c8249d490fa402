package driver

import (
	"encoding/json"
	"strings"
	"testing"
)

const taintPrelude = `analysis taint
getenv(_) -> tainted
printf(untainted, ...)
`

const taintDemo = `
extern char *getenv(const char *name);
extern int printf(const char *fmt, ...);

int greet(void) {
    char *user = getenv("USER");
    return printf(user);
}
`

func taintConfig() Config {
	return Config{
		Analyses: []string{"taint"},
		Preludes: []PreludeFile{{Path: "taint.q", Text: taintPrelude}},
	}
}

func TestRunTaintEndToEnd(t *testing.T) {
	res, err := Run(taintConfig(), []Source{TextSource("t.c", taintDemo)})
	if err != nil {
		t.Fatal(err)
	}
	var conflicts []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts = append(conflicts, d)
		}
	}
	if len(conflicts) != 1 {
		t.Fatalf("%d conflicts, want 1: %v", len(conflicts), res.Diagnostics)
	}
	d := conflicts[0]
	if d.Analysis != "taint" {
		t.Errorf("conflict owner = %q, want taint", d.Analysis)
	}
	if !strings.Contains(d.Message, "{tainted}") || !strings.Contains(d.Message, "{untainted}") {
		t.Errorf("message = %q", d.Message)
	}
	if len(d.Flow) != 2 {
		t.Fatalf("flow has %d steps, want 2: %+v", len(d.Flow), d.Flow)
	}
	if !strings.Contains(d.Flow[0].Note, `result of "getenv" is tainted`) {
		t.Errorf("first hop = %q", d.Flow[0].Note)
	}
	if !strings.Contains(d.Flow[1].Note, "initializer") {
		t.Errorf("second hop = %q", d.Flow[1].Note)
	}
}

func TestRunTaintJSONSchema(t *testing.T) {
	res, err := Run(taintConfig(), []Source{TextSource("t.c", taintDemo)})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Analyses    []string `json:"analyses"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Analysis string `json:"analysis"`
			Flow     []struct {
				Pos  string `json:"pos"`
				Note string `json:"note"`
			} `json:"flow"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Analyses) != 1 || doc.Analyses[0] != "taint" {
		t.Errorf("analyses = %v", doc.Analyses)
	}
	found := false
	for _, d := range doc.Diagnostics {
		if d.Code == "qualifier-conflict" {
			found = true
			if d.Analysis != "taint" || len(d.Flow) == 0 {
				t.Errorf("JSON conflict = %+v", d)
			}
		}
	}
	if !found {
		t.Error("no qualifier-conflict diagnostic in JSON output")
	}
}

func TestRunUnknownAnalysis(t *testing.T) {
	_, err := Run(Config{Analyses: []string{"bogus"}}, []Source{TextSource("t.c", taintDemo)})
	if err == nil || !strings.Contains(err.Error(), `unknown analysis "bogus"`) {
		t.Errorf("err = %v", err)
	}
}

func TestRunPreludeErrorDiagnostic(t *testing.T) {
	cfg := Config{
		Analyses: []string{"taint"},
		Preludes: []PreludeFile{{Path: "bad.q", Text: "getenv(_) -> tainted\n"}},
	}
	res, err := Run(cfg, []Source{TextSource("t.c", taintDemo)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Error("report built despite prelude error")
	}
	errs := res.Errors()
	if len(errs) != 1 || errs[0].Code != "prelude-error" || errs[0].Stage != StageBuild {
		t.Fatalf("diagnostics = %v", res.Diagnostics)
	}
	if !strings.Contains(errs[0].Message, "bad.q:1") {
		t.Errorf("prelude error lacks position: %q", errs[0].Message)
	}
}

func TestRunNoPreludeWarning(t *testing.T) {
	res, err := Run(Config{Analyses: []string{"taint"}}, []Source{TextSource("t.c", taintDemo)})
	if err != nil {
		t.Fatal(err)
	}
	var warned bool
	for _, d := range res.Diagnostics {
		if d.Code == "no-prelude" && d.Severity == SevWarning && d.Analysis == "taint" {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no no-prelude warning: %v", res.Diagnostics)
	}
	if res.Report == nil {
		t.Error("advisory warning suppressed the report")
	}
}

// TestRunTaintDeterministicAcrossJobs: the rendered diagnostics — hop
// sequence included — are identical across fresh runs with Jobs 1, 4 and
// 8, which have no effect.
func TestRunTaintDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		cfg := taintConfig()
		cfg.Analyses = []string{"const", "taint"}
		cfg.Jobs = jobs
		res, err := Run(cfg, []Source{TextSource("t.c", taintDemo)})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range res.Diagnostics {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := render(1)
	if !strings.Contains(want, "flow:") {
		t.Fatalf("no flow trace rendered:\n%s", want)
	}
	for _, jobs := range []int{4, 8} {
		if got := render(jobs); got != want {
			t.Errorf("jobs=%d differs\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}
