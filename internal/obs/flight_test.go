package obs

// Unit tests for the flight-recorder building blocks: the tail-retention
// ring, the event journal and its slog mirror, the SLO burn-rate
// tracker, OpenMetrics rendering with exemplars, and /metrics content
// negotiation.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Recorder -------------------------------------------------------

func TestRecorderDecideReasons(t *testing.T) {
	r := NewRecorder()
	// Spend the first sample ordinal and the zero-latency bucket's slow
	// admissions, so the cases below see neither policy.
	for i := 0; i < slowestPerBucket; i++ {
		r.Decide(Sample{})
	}
	cases := []struct {
		s    Sample
		want []string
	}{
		{Sample{Forced: true}, []string{"forced"}},
		{Sample{Err: true}, []string{"error"}},
		{Sample{Shed: true}, []string{"shed"}},
		{Sample{Err: true, Shed: true}, []string{"error", "shed"}},
		{Sample{Forced: true, Err: true}, []string{"forced", "error"}},
		{Sample{}, nil},
	}
	for _, c := range cases {
		retain, reasons := r.Decide(c.s)
		if retain != (len(c.want) > 0) {
			t.Errorf("Decide(%+v) retain = %v, want %v", c.s, retain, len(c.want) > 0)
		}
		if fmt.Sprint(reasons) != fmt.Sprint(c.want) {
			t.Errorf("Decide(%+v) reasons = %v, want %v", c.s, reasons, c.want)
		}
	}
}

func TestRecorderSlowPolicy(t *testing.T) {
	// Two admissions per bucket, then only new bucket maxima.
	r := NewRecorder()
	r.Decide(Sample{Forced: true}) // the first request is sampled
	decide := func(sec float64) bool {
		ok, _ := r.Decide(Sample{Seconds: sec})
		return ok
	}
	// 0.06 and 0.07 share the (0.05, 0.1] bucket of DefLatencyBuckets.
	if !decide(0.06) || !decide(0.07) {
		t.Fatal("first two in bucket should be retained")
	}
	if decide(0.055) {
		t.Fatal("below-max third entry should not be retained")
	}
	if !decide(0.08) {
		t.Fatal("new bucket maximum should be retained")
	}
	if decide(0.08) {
		t.Fatal("equal-to-max entry should not be retained")
	}
	// A different bucket has its own budget.
	if !decide(0.3) {
		t.Fatal("first entry of second bucket should be retained")
	}
}

func TestRecorderSampleEvery(t *testing.T) {
	r := NewRecorder()
	var got []int
	for i := 1; i <= 2*sampleEvery+1; i++ {
		_, reasons := r.Decide(Sample{})
		if slices.Contains(reasons, "sample") {
			got = append(got, i)
		}
	}
	// The first request is always sampled, then every 64th after it.
	if fmt.Sprint(got) != fmt.Sprint([]int{1, 65, 129}) {
		t.Fatalf("sampled ordinals = %v, want [1 65 129]", got)
	}
}

func TestRecorderRingEvictionAndReconcile(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 40; i++ {
		r.Put(fmt.Sprintf("t%02d", i), []byte("x"), 0.001, []string{"sample"})
	}
	st := r.Stats()
	if st.Admitted != 40 || st.Resident != 32 || st.Evicted != 8 {
		t.Fatalf("stats = %+v, want admitted 40 = resident 32 + evicted 8", st)
	}
	if _, ok := r.Get("t39"); !ok {
		t.Fatal("newest entry missing")
	}
	if _, ok := r.Get("t07"); ok {
		t.Fatal("evicted entry still retrievable")
	}
	infos := r.Retained()
	if len(infos) != 32 || infos[0].ID != "t39" || infos[31].ID != "t08" {
		t.Fatalf("Retained() = %+v, want t39..t08 newest first", infos)
	}
}

func TestRecorderConcurrentReconcile(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("g%d-%03d", g, i)
				r.Put(id, []byte(id), 0.001, []string{"sample"})
				r.Get(id)
				r.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Admitted != 400 {
		t.Fatalf("admitted = %d, want 400", st.Admitted)
	}
	if st.Admitted != uint64(st.Resident)+st.Evicted {
		t.Fatalf("admitted %d != resident %d + evicted %d", st.Admitted, st.Resident, st.Evicted)
	}
}

// --- Journal --------------------------------------------------------

// quietJournal is a journal whose mirror discards its records.
func quietJournal() *Journal {
	j := NewJournal()
	j.mirror = slog.New(slog.NewTextHandler(io.Discard, nil))
	return j
}

func TestJournalSinceAndDrop(t *testing.T) {
	j := quietJournal()
	j.clock = func() time.Time { return time.UnixMilli(42) }
	const total = journalEntries + 2
	for i := 1; i <= total; i++ {
		seq := j.Append("cache_evict", "info", fmt.Sprintf("evict %d", i), "key", fmt.Sprint(i))
		if seq != uint64(i) {
			t.Fatalf("Append seq = %d, want %d", seq, i)
		}
	}
	evs, next := j.Since(0, 0)
	if len(evs) != journalEntries || evs[0].Seq != 3 || evs[len(evs)-1].Seq != total {
		t.Fatalf("Since(0) = %d events from seq %d, want seqs 3..%d", len(evs), evs[0].Seq, total)
	}
	if next != total {
		t.Fatalf("next = %d, want %d", next, total)
	}
	if evs[0].TimeMS != 42 || evs[0].Attrs["key"] != "3" {
		t.Fatalf("event fields wrong: %+v", evs[0])
	}
	if evs2, next2 := j.Since(total, 0); evs2 != nil || next2 != total {
		t.Fatalf("Since(%d) = %v, %d, want nil, %d", total, evs2, next2, total)
	}
	st := j.Stats()
	if st.NextSeq != total+1 || st.Entries != journalEntries || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalWaitLongPoll(t *testing.T) {
	j := quietJournal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan bool, 1)
	go func() { done <- j.Wait(ctx, 0) }()
	time.Sleep(10 * time.Millisecond)
	j.Append("watch_reanalyze", "info", "dir changed")
	if !<-done {
		t.Fatal("Wait returned false with a new event available")
	}
	// Expired context with nothing new returns false.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if j.Wait(ctx2, 1) {
		t.Fatal("Wait returned true with no new events")
	}
}

func TestJournalSlogBridges(t *testing.T) {
	if NewJournal().mirror != slog.Default() {
		t.Fatal("journal does not mirror to slog.Default()")
	}
	j := NewJournal()
	var buf bytes.Buffer
	j.mirror = slog.New(slog.NewTextHandler(&buf, nil))

	// Append mirrors to slog.
	j.Append("session_evict", "warn", "session evicted", "key", "abc")
	if out := buf.String(); !strings.Contains(out, "session evicted") || !strings.Contains(out, "event=session_evict") ||
		!strings.Contains(out, "key=abc") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("mirror output missing event: %q", out)
	}
}

// --- SLO ------------------------------------------------------------

func TestSLOBurnRate(t *testing.T) {
	tr := NewSLOTracker(250 * time.Millisecond)
	now := time.Unix(1_000_000, 0)
	tr.clock = func() time.Time { return now }

	// 98 good, 1 slow, 1 failed: 2% bad against a 1% budget → burn 2.
	for i := 0; i < 98; i++ {
		tr.Observe(0.01, false)
	}
	tr.Observe(0.5, false)
	tr.Observe(0.01, true)

	good, bad := tr.totals(5 * time.Minute)
	if good != 98 || bad != 2 {
		t.Fatalf("totals = %d good, %d bad", good, bad)
	}
	if br := tr.BurnRate(5 * time.Minute); br < 1.99 || br > 2.01 {
		t.Fatalf("burn rate = %v, want 2", br)
	}

	// Advance past the 5m window: short window empties, 6h still sees it.
	now = now.Add(6 * time.Minute)
	if br := tr.BurnRate(5 * time.Minute); br != 0 {
		t.Fatalf("5m burn after idle = %v, want 0", br)
	}
	if br := tr.BurnRate(6 * time.Hour); br < 1.99 || br > 2.01 {
		t.Fatalf("6h burn = %v, want 2", br)
	}
}

func TestSLOZeroTrafficAndDefaults(t *testing.T) {
	tr := NewSLOTracker(100 * time.Millisecond)
	if tr.Objective() != 0.1 {
		t.Fatalf("objective = %v, want 0.1", tr.Objective())
	}
	if br := tr.BurnRate(time.Hour); br != 0 {
		t.Fatalf("zero-traffic burn = %v, want 0", br)
	}
	if WindowLabel(5*time.Minute) != "5m" || WindowLabel(time.Hour) != "1h" || WindowLabel(6*time.Hour) != "6h" {
		t.Fatal("WindowLabel rendering wrong")
	}
}

// --- OpenMetrics + exemplars ---------------------------------------

func TestOpenMetricsRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cquald_requests_total", "Requests.")
	c.Add(7)
	r.NewGaugeFunc("cquald_in_flight", "In flight.", func() float64 { return 2 })
	h := r.NewHistogram("cquald_request_seconds", "Latency.", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "trace-aa")
	h.Observe(0.06) // no trace id: exemplar keeps trace-aa
	h.ObserveExemplar(0.5, "trace-bb")

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cquald_requests counter\n", // family name drops _total
		"cquald_requests_total 7\n",        // sample keeps it
		"# TYPE cquald_in_flight gauge\n",
		"cquald_in_flight 2\n",
		`cquald_request_seconds_bucket{le="0.1"} 2 # {trace_id="trace-aa"} 0.05` + "\n",
		`cquald_request_seconds_bucket{le="1"} 3 # {trace_id="trace-bb"} 0.5` + "\n",
		`cquald_request_seconds_bucket{le="+Inf"} 3` + "\n",
		"cquald_request_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", out)
	}
	if strings.Contains(out, "# HELP cquald_requests_total") {
		t.Fatalf("counter HELP kept _total suffix:\n%s", out)
	}

	// The Prometheus rendering is unaffected by exemplars.
	prom := render(t, r)
	if strings.Contains(prom, "trace_id") || strings.Contains(prom, "# EOF") {
		t.Fatalf("Prometheus rendering leaked OpenMetrics syntax:\n%s", prom)
	}
}

// TestExpositionsDifferOnlyBySpec pins the parity the write comment
// claims: with the three spec differences undone (exemplar suffixes,
// `# EOF`, and `_total` on counter HELP/TYPE lines), the OpenMetrics
// render equals the Prometheus one line for line.
func TestExpositionsDifferOnlyBySpec(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("cquald_requests_total", "Requests.").Add(7)
	r.NewCounter("cquald_analysis_total", "Per analysis.", L("analysis", "taint")).Add(2)
	r.NewCounter("cquald_analysis_total", "Per analysis.", L("analysis", "const")).Add(5)
	r.NewGaugeFunc("cquald_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.NewHistogram("cquald_request_seconds", "Latency.", []float64{0.1, 1}, L("cache", "miss"))
	h.ObserveExemplar(0.05, "trace-aa")
	h.ObserveExemplar(3, "trace-cc")
	h.Observe(0.5)
	r.NewHistogram("cquald_stage_seconds", "Stages.", nil).Observe(0.002)

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	prom := render(t, r)
	got, ok := strings.CutSuffix(om.String(), "# EOF\n")
	if !ok {
		t.Fatalf("OpenMetrics render lacks # EOF:\n%s", om.String())
	}
	exemplar := regexp.MustCompile(` # \{trace_id="[^"]*"\} \S+\n`)
	if n := len(exemplar.FindAllString(got, -1)); n != 2 {
		t.Errorf("OpenMetrics render has %d exemplar(s), want 2:\n%s", n, got)
	}
	got = exemplar.ReplaceAllString(got, "\n")
	for _, fam := range []string{"cquald_requests", "cquald_analysis"} {
		for _, kw := range []string{"# HELP ", "# TYPE "} {
			got = strings.ReplaceAll(got, kw+fam+" ", kw+fam+"_total ")
		}
	}
	if got != prom {
		t.Errorf("renders differ beyond the spec:\nOpenMetrics (normalized):\n%s\nPrometheus:\n%s", got, prom)
	}
}

// --- Negotiation ----------------------------------------------------

func TestNegotiateMetricsFormat(t *testing.T) {
	cases := []struct {
		accept, want string
	}{
		{"", FormatJSON},                 // absent header
		{"*/*", FormatJSON},              // browser wildcard
		{"text/plain;q=0", FormatJSON},   // everything excluded
		{"text/plain", FormatPrometheus}, // classic scraper
		{"text/plain; version=0.0.4", FormatPrometheus},
		{"application/json", FormatJSON},
		{"application/openmetrics-text", FormatOpenMetrics},
		// Prometheus 2.x scrape header: OpenMetrics preferred by q.
		{"application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1", FormatOpenMetrics},
		// Equal q ties break toward the richer exposition.
		{"application/openmetrics-text,text/plain", FormatOpenMetrics},
		{"text/plain,application/json", FormatPrometheus},
		// Wildcard with higher q than an excluded specific type.
		{"text/plain;q=0,*/*;q=0.5", FormatJSON},
		// Browsers: html first, wildcard fallback → JSON.
		{"text/html,application/xhtml+xml,*/*;q=0.8", FormatJSON},
		// Unknown types only → JSON fallback.
		{"application/xml", FormatJSON},
		// Malformed q excludes the entry.
		{"text/plain;q=banana", FormatJSON},
		// Case-insensitive media types.
		{"TEXT/PLAIN", FormatPrometheus},
	}
	for _, c := range cases {
		if got := NegotiateMetricsFormat(c.accept); got != c.want {
			t.Errorf("NegotiateMetricsFormat(%q) = %q, want %q", c.accept, got, c.want)
		}
	}
}
