package driver

// Tests for the analysis expansion pack: const, taint, unique, and
// fdstate riding the same product lattice through ONE constraint pass,
// with sessions none the wiser.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// expansionPreludes declare one library vocabulary per analysis; the
// suite merges them onto disjoint mask components of the product
// lattice.
var expansionPreludes = []PreludeFile{
	{Path: "taint.q", Text: `analysis taint
getenv(_) -> tainted
printf(untainted)
`},
	{Path: "unique.q", Text: `analysis unique
make_buffer(_) -> fresh
register_buffer(aliased)
`},
	{Path: "fd.q", Text: `analysis fdstate
openfd(_) -> fresh
closefd(closed)
readfd(open)
`},
}

// expansionDemo plants exactly one violation per analysis: a write
// through a const parameter, an injection flow, a mutation of an
// escaped buffer, and a use-after-close.
const expansionDemo = `
extern char *getenv(const char *name);
extern int printf(const char *fmt);
extern char *make_buffer(int n);
extern void register_buffer(char *b);
extern int openfd(const char *path);
extern void closefd(int fd);
extern int readfd(int fd);

void constbad(const char *s) { *s = 0; }

int taintbad(void) {
    char *user = getenv("USER");
    return printf(user);
}

void uniquebad(void) {
    char *b = make_buffer(8);
    register_buffer(b);
    b[0] = 1;
}

int fdbad(void) {
    int fd = openfd("log");
    closefd(fd);
    return readfd(fd);
}
`

func expansionConfig(jobs int) Config {
	return Config{
		Jobs:     jobs,
		Analyses: []string{"const", "taint", "unique", "fdstate"},
		Preludes: expansionPreludes,
	}
}

// TestRunFourAnalysesSinglePass is the tentpole acceptance check: all
// four analyses solve in one constraint pass — the trace records
// exactly one driver.solve span — and each reports its planted
// conflict.
func TestRunFourAnalysesSinglePass(t *testing.T) {
	tracer := obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Microsecond))
	ctx := obs.WithTracer(context.Background(), tracer)
	res, err := RunContext(ctx, expansionConfig(1), []Source{TextSource("demo.c", expansionDemo)})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	solves := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "driver.solve" {
			solves++
		}
	}
	if solves != 1 {
		t.Errorf("driver.solve spans = %d, want exactly 1 (all analyses share one pass)", solves)
	}

	owners := map[string]int{}
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			owners[d.Analysis]++
		}
	}
	want := map[string]int{"const": 1, "taint": 1, "unique": 1, "fdstate": 1}
	if !reflect.DeepEqual(owners, want) {
		t.Errorf("conflicts per analysis = %v, want %v\ndiagnostics: %v", owners, want, res.Diagnostics)
	}
}

// TestRunFourAnalysesJobsDeterminism: the combined pass renders
// byte-identically across fresh runs, flow traces included, for every
// Jobs value, which has no effect.
func TestRunFourAnalysesJobsDeterminism(t *testing.T) {
	render := func(jobs int) string {
		res, err := Run(expansionConfig(jobs), []Source{TextSource("demo.c", expansionDemo)})
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

// TestSessionDeltaFourAnalyses: sessions run the four analyses, and an
// edited body reports exactly as a cold run does.
func TestSessionDeltaFourAnalyses(t *testing.T) {
	edited := strings.Replace(expansionDemo, "return readfd(fd);", "readfd(fd);\n    return readfd(fd);", 1)
	if edited == expansionDemo {
		t.Fatal("edit did not apply")
	}
	checkSessionMatchesCold(t, expansionConfig(1), "demo.c", []string{expansionDemo, edited})
}

// TestFindingsAndBaseline covers the lint plumbing at the driver level:
// diagnostics flatten to vet-shaped findings with stable rule ids, the
// JSON round-trips as a baseline, and the baseline keys on rule + file
// + message — positions move without reopening findings, new messages
// fail, and entries that no longer fire are stale.
func TestFindingsAndBaseline(t *testing.T) {
	res, err := Run(expansionConfig(1), []Source{TextSource("demo.c", expansionDemo)})
	if err != nil {
		t.Fatal(err)
	}
	findings := Findings(res)
	if len(findings) != 4 {
		t.Fatalf("findings = %d, want 4:\n%+v", len(findings), findings)
	}
	rules := map[string]bool{}
	for _, f := range findings {
		rules[f.Rule] = true
		if f.Analysis == "" || !strings.HasPrefix(f.Rule, f.Analysis+"-") {
			t.Errorf("finding rule %q not derived from analysis %q", f.Rule, f.Analysis)
		}
		line := f.String()
		if !strings.HasPrefix(line, "demo.c:") || !strings.Contains(line, ": "+f.Analysis+": ") {
			t.Errorf("finding not vet-shaped (file:line:col: analysis: message): %q", line)
		}
	}
	for _, want := range []string{"const-conflict", "taint-conflict", "unique-conflict", "fdstate-conflict"} {
		if !rules[want] {
			t.Errorf("missing rule id %q in %v", want, rules)
		}
	}

	var buf bytes.Buffer
	if err := WriteLintJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 4 {
		t.Fatalf("baseline holds %d findings, want 4", base.Len())
	}
	if fresh := base.New(findings); len(fresh) != 0 {
		t.Errorf("findings not suppressed by their own baseline: %+v", fresh)
	}
	moved := findings[0]
	moved.Pos = "demo.c:99:1"
	if fresh := base.New([]Finding{moved}); len(fresh) != 0 {
		t.Error("moving a finding within its file must not reopen it")
	}
	renamed := findings[0]
	renamed.Message = "a brand new conflict"
	if fresh := base.New([]Finding{renamed}); len(fresh) != 1 {
		t.Error("a new message must count as a new finding")
	}
	if stale := base.Stale(findings); len(stale) != 0 {
		t.Errorf("entries of a baseline that all fire reported stale: %+v", stale)
	}
	if stale := base.Stale(append([]Finding{moved, renamed}, findings[2:]...)); len(stale) != 1 || stale[0].Message != findings[1].Message {
		t.Errorf("stale = %+v, want only the entry that no longer fires, %+v", stale, findings[1])
	}
}
