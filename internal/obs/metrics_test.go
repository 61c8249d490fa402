package obs

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterAndGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cqual_requests_total", "Analyze requests received.")
	r.NewGaugeFunc("cqual_in_flight", "Requests in flight.", func() float64 { return 1 })
	r.NewGaugeFunc("cqual_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	c.Add(3)
	c.Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP cqual_requests_total Analyze requests received.",
		"# TYPE cqual_requests_total counter",
		"cqual_requests_total 4",
		"# TYPE cqual_in_flight gauge",
		"cqual_in_flight 1",
		"cqual_uptime_seconds 12.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeriesSortedWithinFamily(t *testing.T) {
	r := NewRegistry()
	b := r.NewCounter("cqual_analysis_requests_total", "Per-analysis requests.", L("analysis", "taint"))
	a := r.NewCounter("cqual_analysis_requests_total", "Per-analysis requests.", L("analysis", "const"))
	a.Add(1)
	b.Add(2)
	out := render(t, r)
	i := strings.Index(out, `analysis="const"`)
	j := strings.Index(out, `analysis="taint"`)
	if i < 0 || j < 0 || i > j {
		t.Fatalf("series not sorted by label set:\n%s", out)
	}
	if !strings.Contains(out, `cqual_analysis_requests_total{analysis="const"} 1`) {
		t.Fatalf("labeled counter missing:\n%s", out)
	}
	// HELP/TYPE appear once per family, not per series.
	if strings.Count(out, "# TYPE cqual_analysis_requests_total counter") != 1 {
		t.Fatalf("TYPE repeated:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cqual_stage_duration_seconds", "Stage latency.",
		[]float64{0.1, 1}, L("stage", "solve"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	out := render(t, r)
	for _, want := range []string{
		"# TYPE cqual_stage_duration_seconds histogram",
		`cqual_stage_duration_seconds_bucket{stage="solve",le="0.1"} 1`,
		`cqual_stage_duration_seconds_bucket{stage="solve",le="1"} 2`,
		`cqual_stage_duration_seconds_bucket{stage="solve",le="+Inf"} 3`,
		`cqual_stage_duration_seconds_count{stage="solve"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Sum() != 5.55 {
		t.Fatalf("sum = %v, want 5.55", h.Sum())
	}
	// Observations exactly on a bound land in that bound's bucket
	// (Prometheus le semantics are inclusive).
	h2 := r.NewHistogram("cqual_edge", "Edge case.", []float64{1})
	h2.Observe(1)
	if got := h2.buckets[0].Load(); got != 1 {
		t.Fatalf("observation on bound landed in bucket %v", got)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	h := r.NewHistogram("h_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d hist count=%d, want 8000", c.Value(), h.Count())
	}
	if got := h.Sum(); got < 79.9 || got > 80.1 {
		t.Fatalf("hist sum = %v, want ~80", got)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "d")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.NewCounter("dup_total", "d")
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "e", L("path", `a"b\c`))
	c.Inc()
	out := render(t, r)
	if !strings.Contains(out, `esc_total{path="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}
