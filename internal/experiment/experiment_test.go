package experiment

import (
	"strings"
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
	results, err := RunSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("suite has %d results", len(results))
	}
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
