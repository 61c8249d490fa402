package experiment

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/benchgen"
)

func smallConfig() benchgen.Config {
	return benchgen.Config{
		Name: "tiny-1.0", Description: "test benchmark",
		TargetLines: 400, Seed: 42,
		ReadersPerGroup: 6, DeclaredConstFrac: 0.5,
		WritersPerGroup: 2, StructFrac: 0.5, FlowFrac: 0.8, MixedFlowFrac: 0.6,
		RecursionFrac: 0.2, IntHelpers: 3,
	}
}

func TestRunProducesConsistentCounters(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines < 300 {
		t.Errorf("lines = %d", res.Lines)
	}
	if !(res.Declared <= res.Mono && res.Mono <= res.Poly && res.Poly <= res.Total) {
		t.Errorf("ordering violated: %d ≤ %d ≤ %d ≤ %d",
			res.Declared, res.Mono, res.Poly, res.Total)
	}
	if res.CompileTime <= 0 || res.MonoTime <= 0 || res.PolyTime <= 0 {
		t.Error("timings not recorded")
	}
	if res.MonoReport == nil || res.PolyReport == nil {
		t.Error("reports not kept")
	}
}

func TestTablesRender(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := []*Result{res}
	t1 := Table1(rs)
	if !strings.Contains(t1, "tiny-1.0") || !strings.Contains(t1, "test benchmark") {
		t.Errorf("Table1:\n%s", t1)
	}
	t2 := Table2(rs)
	for _, col := range []string{"Compile", "Mono", "Poly", "Declared", "Total possible"} {
		if !strings.Contains(t2, col) {
			t.Errorf("Table2 missing %q:\n%s", col, t2)
		}
	}
	f6 := Figure6(rs)
	for _, seg := range []string{"Declared", "Mono", "Poly", "Other", "legend"} {
		if !strings.Contains(f6, seg) {
			t.Errorf("Figure6 missing %q:\n%s", seg, f6)
		}
	}
}

func TestFigure6ZeroTotal(t *testing.T) {
	// Degenerate input must not divide by zero.
	out := Figure6([]*Result{{Config: benchgen.Config{Name: "empty"}}})
	if !strings.Contains(out, "empty") {
		t.Error("missing row")
	}
}

// TestRunSuiteShape runs the full paper suite (a few seconds) and checks
// the qualitative claims of Table 2 hold: ordering, a positive poly gain,
// and poly time within the paper's 3× bound (with slack for CI noise).
func TestRunSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	results := suiteResults(t)
	for _, r := range results {
		if !(r.Declared <= r.Mono && r.Mono <= r.Poly && r.Poly <= r.Total) {
			t.Errorf("%s: ordering violated: %d/%d/%d/%d",
				r.Config.Name, r.Declared, r.Mono, r.Poly, r.Total)
		}
		if r.Poly <= r.Mono {
			t.Errorf("%s: no polymorphism gain", r.Config.Name)
		}
		gain := float64(r.Poly) / float64(r.Mono)
		if gain > 1.30 {
			t.Errorf("%s: poly gain %.2f outside the paper's band", r.Config.Name, gain)
		}
		if r.PolyTime > 8*r.MonoTime {
			t.Errorf("%s: poly time %v > 8× mono %v", r.Config.Name, r.PolyTime, r.MonoTime)
		}
	}
	// The suite ordering by size is reflected in the totals.
	for i := 1; i < len(results); i++ {
		if results[i].Total < results[i-1].Total/2 {
			t.Errorf("totals wildly non-monotone: %s=%d after %s=%d",
				results[i].Config.Name, results[i].Total,
				results[i-1].Config.Name, results[i-1].Total)
		}
	}
}

var suite struct {
	once    sync.Once
	results []*Result
	err     error
}

// suiteResults runs the paper suite once for every test that reads it.
func suiteResults(t *testing.T) []*Result {
	t.Helper()
	suite.once.Do(func() { suite.results, suite.err = RunSuite() })
	if suite.err != nil {
		t.Fatal(suite.err)
	}
	if len(suite.results) != 6 {
		t.Fatalf("suite has %d results", len(suite.results))
	}
	return suite.results
}

// TestTable2Pinned pins the Table 2 counts of the six generated paper
// programs, the measured table of EXPERIMENTS.md: a change to the
// generator or to the inference that moves any of them fails here, and
// the table is regenerated with `go run ./cmd/paperbench -table2`.
func TestTable2Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	want := []struct {
		name                        string
		declared, mono, poly, total int
	}{
		{"woman-3.0a", 64, 88, 94, 118},
		{"patch-2.5", 223, 286, 295, 400},
		{"m4-1.4", 124, 372, 396, 547},
		{"diffutils-2.7", 255, 378, 438, 649},
		{"ssh-1.2.26", 358, 889, 964, 1317},
		{"uucp-1.04", 692, 1790, 1988, 2728},
	}
	for i, r := range suiteResults(t) {
		w := want[i]
		got := [4]int{r.Declared, r.Mono, r.Poly, r.Total}
		if r.Config.Name != w.name || got != [4]int{w.declared, w.mono, w.poly, w.total} {
			t.Errorf("%s: declared/mono/poly/total = %v, want %s %d/%d/%d/%d",
				r.Config.Name, got, w.name, w.declared, w.mono, w.poly, w.total)
		}
	}
}
