package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// getMetrics fetches /metrics with the given Accept header.
func getMetrics(t *testing.T, ts *httptest.Server, accept string) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestMetricsPrometheus is the exposition acceptance check: the default
// response stays JSON with the original shape, and Accept: text/plain
// (or ?format=prometheus) selects Prometheus text including histogram
// bucket series.
func TestMetricsPrometheus(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": prog}))

	resp, data := getMetrics(t, ts, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("default /metrics is not the JSON shape: %v", err)
	}
	if m.Requests != 1 || m.Analyses != 1 || m.Stages.Runs != 1 {
		t.Errorf("requests/analyses/runs = %d/%d/%d, want 1/1/1", m.Requests, m.Analyses, m.Stages.Runs)
	}
	st := m.Stages
	if sum := st.BuildMS + st.ConstrainMS + st.SolveMS + st.ClassifyMS; math.Abs(st.AnalysisMS-sum) > 1e-9*sum {
		t.Errorf("analysis_ms = %v, want build+constrain+solve+classify = %v", st.AnalysisMS, sum)
	}

	resp, data = getMetrics(t, ts, "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus Content-Type = %q, want text/plain", ct)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE cquald_requests_total counter",
		"cquald_requests_total 1",
		"# TYPE cquald_request_seconds histogram",
		`cquald_request_seconds_bucket{cache="miss",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="load",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="parse",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="build",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="constrain",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="solve",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="classify",le="+Inf"} 1`,
		`cquald_stage_seconds_bucket{stage="report",le="+Inf"} 1`,
		`cquald_analysis_requests_total{analysis="const"} 1`,
		`cquald_cache_misses{cache="result"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
	if strings.Contains(text, `stage="eval"`) {
		t.Error(`prometheus text has a stage="eval" series: cquald runs no lambda programs`)
	}

	// ?format=prometheus selects the same rendering without the header.
	resp2, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(data2), "# TYPE cquald_request_seconds histogram") {
		t.Error("?format=prometheus did not render Prometheus text")
	}
}

// TestMetricsPreregisterAnalyses: every registered analysis — the
// expansion pack included — has its request counter pre-registered on
// the lock-free /metrics path before any request names it, so scrapes
// see a stable series set from the first sample.
func TestMetricsPreregisterAnalyses(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	_, data := getMetrics(t, ts, "text/plain")
	text := string(data)
	for _, analysis := range []string{"const", "taint", "unique", "fdstate"} {
		want := fmt.Sprintf("cquald_analysis_requests_total{analysis=%q} 0", analysis)
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing pre-registered series %q", want)
		}
	}
}

// TestRequestTracing checks the per-request trace path: every analyze
// response carries an X-Trace-Id, ?trace=1 forces retention of a Chrome
// trace retrievable at /v1/traces/<id>, and the flight recorder's
// always-on recording leaves the report body byte-identical.
func TestRequestTracing(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	body := analyzeBody(map[string]string{"prog.c": prog})
	r1, d1 := postAnalyze(t, ts, body)
	if r1.Header.Get("X-Trace-Id") == "" {
		t.Error("untraced response missing X-Trace-Id")
	}

	resp, err := http.Post(ts.URL+"/v1/analyze?trace=1", "application/json",
		strings.NewReader(analyzeBody(map[string]string{"prog2.c": prog + "\nint extra(int *r) { return deref(r); }\n"})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("traced response missing X-Trace-Id")
	}

	tresp, err := http.Get(ts.URL + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != 200 {
		t.Fatalf("GET /v1/traces/%s: status %d", id, tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"driver.run", "driver.constrain", "driver.solve"} {
		if !names[want] {
			t.Errorf("trace missing span %q; got %v", want, names)
		}
	}

	// The first request never passed ?trace=1, but the flight recorder's
	// tail-retention policy keeps it anyway (it is the first request of
	// its latency bucket and the 1-in-K sample): its trace is
	// retrievable after the fact. This is the recorder's whole point —
	// see TestFlightRecorderRetainsWithoutOptIn for the full contract.
	nresp, err := http.Get(ts.URL + "/v1/traces/" + r1.Header.Get("X-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Errorf("tail-retained id served status %d, want 200", nresp.StatusCode)
	}

	// An id the server never issued 404s.
	nresp2, err := http.Get(ts.URL + "/v1/traces/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	nresp2.Body.Close()
	if nresp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id served status %d, want 404", nresp2.StatusCode)
	}

	// Tracing never leaks into the report body: re-POST the first batch
	// with ?trace=1 and compare against the cached untraced bytes.
	resp3, err := http.Post(ts.URL+"/v1/analyze?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	d3, _ := io.ReadAll(resp3.Body)
	if string(d3) != string(d1) {
		t.Error("?trace=1 changed the report body")
	}
}

// TestMetricsAnalyzeRace hammers /metrics (both renderings) while
// analyses run. The scrape path is lock-free; under -race this verifies
// every counter it reads is safely published.
func TestMetricsAnalyzeRace(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				// Alternate a shared program (cache hits) with unique
				// ones (misses) so both paths run under the scrapers.
				src := prog
				if j%2 == 1 {
					src = fmt.Sprintf("int f%d_%d(int *p) { return *p; }", i, j)
				}
				url := ts.URL + "/v1/analyze"
				if j%3 == 0 {
					url += "?trace=1"
				}
				resp, err := http.Post(url, "application/json",
					strings.NewReader(analyzeBody(map[string]string{"prog.c": src})))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			accept := ""
			if i%2 == 0 {
				accept = "text/plain"
			}
			for j := 0; j < 20; j++ {
				resp, data := getMetrics(t, ts, accept)
				if resp.StatusCode != 200 || len(data) == 0 {
					t.Errorf("scrape %d/%d: status %d, %d bytes", i, j, resp.StatusCode, len(data))
					return
				}
			}
		}(i)
	}
	wg.Wait()

	_, data := getMetrics(t, ts, "")
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 20 {
		t.Errorf("requests = %d, want 20", m.Requests)
	}
	if m.Analyses == 0 || m.ResultCache.Hits == 0 {
		t.Errorf("analyses = %d, hits = %d; want both nonzero", m.Analyses, m.ResultCache.Hits)
	}
}

// TestPprofOptIn checks the profiling endpoints are mounted only when
// configured.
func TestPprofOptIn(t *testing.T) {
	off := httptest.NewServer(New(Config{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without EnablePprof: status %d", resp.StatusCode)
	}

	on := httptest.NewServer(New(Config{EnablePprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index with EnablePprof: status %d, want 200", resp.StatusCode)
	}
}
