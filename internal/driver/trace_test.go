package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/constinfer"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden")

// traceDemo has several functions across two components, so the
// Constrain stage emits one constrain.func span per body.
const traceDemo = `
int id(int *p) { return *p; }
int twice(int *p) { return id(p) + id(p); }
int fact(int n) { if (n) return n * fact(n - 1); return 1; }
void set(char *p) { *p = 0; }
`

// runTraced runs the pipeline under an injected fake clock and returns
// the exported trace bytes.
func runTraced(t *testing.T, jobs int) []byte {
	t.Helper()
	tracer := obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Microsecond))
	ctx := obs.WithTracer(context.Background(), tracer)
	res, err := RunContext(ctx, Config{
		Options: constinfer.Options{Poly: true},
		Jobs:    jobs,
	}, []Source{TextSource("demo.c", traceDemo)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasErrors() {
		t.Fatalf("unexpected errors: %v", res.Diagnostics)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenAcrossJobs is the trace acceptance check: spans are
// recorded only on the caller's goroutine, so with a monotonic fake clock
// the exported trace equals testdata/trace.golden byte for byte, for
// every Jobs value (which has no effect). Run with -update to rewrite
// the golden.
func TestTraceGoldenAcrossJobs(t *testing.T) {
	const path = "testdata/trace.golden"
	if *update {
		if err := os.WriteFile(path, runTraced(t, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{0, 1, 4} {
		if got := runTraced(t, jobs); !bytes.Equal(got, golden) {
			t.Errorf("trace for jobs=%d differs from %s:\n got:  %s\n want: %s", jobs, path, got, golden)
		}
	}
}

// TestTraceCoversPipeline checks the span inventory: every driver stage
// and at least one per-function constrain span.
func TestTraceCoversPipeline(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(runTraced(t, 0), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete (X)", e.Name, e.Ph)
		}
		count[e.Name]++
	}
	for _, stage := range []string{
		"driver.run", "driver.load", "driver.parse", "driver.build",
		"driver.constrain", "driver.solve", "driver.classify", "driver.report",
	} {
		if count[stage] != 1 {
			t.Errorf("stage span %q appears %d times, want 1", stage, count[stage])
		}
	}
	if count["constrain.func"] != 4 {
		t.Errorf("constrain.func spans = %d, want 4 (one per defined function)", count["constrain.func"])
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "constrain.func" {
			if _, ok := e.Args["func"].(string); !ok {
				t.Errorf("constrain.func span missing func attr: %v", e.Args)
			}
		}
	}
}

// TestTimingsSumToTotal checks the Report-stage satellite: the per-stage
// timings account for the whole run (Total is their sum, and every
// stage a successful run passes through is recorded).
func TestTimingsSumToTotal(t *testing.T) {
	res, err := Run(Config{}, []Source{TextSource("demo.c", traceDemo)})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	sum := tm.Load + tm.Parse + tm.Build + tm.Constrain + tm.Solve + tm.Classify + tm.Report + tm.Eval
	if tm.Total() != sum {
		t.Errorf("Total() = %v, want the stage sum %v", tm.Total(), sum)
	}
}
