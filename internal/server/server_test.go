package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/constinfer"
	"repro/internal/driver"
	"repro/internal/obs"
)

const prog = `
int deref(const int *p) { return *p; }
int entry(int *q) { return deref(q); }
`

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
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

func analyzeBody(srcs map[string]string) string {
	req := AnalyzeRequest{}
	for p, text := range srcs {
		req.Sources = append(req.Sources, SourceJSON{Path: p, Text: text})
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// TestAnalyzeMissThenHit is the acceptance check: the second POST of
// unchanged sources is served from cache, byte-identical to the first,
// and the hit is visible in /metrics.
func TestAnalyzeMissThenHit(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	body := analyzeBody(map[string]string{"prog.c": prog})
	r1, d1 := postAnalyze(t, ts, body)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first POST: status %d, X-Cache %q; want 200 miss", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, d2 := postAnalyze(t, ts, body)
	if r2.StatusCode != 200 || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second POST: status %d, X-Cache %q; want 200 hit", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("cache hit not byte-identical to cold run:\n%s\n---\n%s", d1, d2)
	}

	// The local driver over the same sources must agree modulo timings
	// (the cached response freezes the cold run's timings).
	res, err := driver.Run(driver.Config{}, []driver.Source{{Path: "prog.c", Text: prog}})
	if err != nil {
		t.Fatal(err)
	}
	local, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if stripMS(string(d1)) != stripMS(string(local)+"\n") {
		t.Fatalf("server report differs from local driver:\n%s\n---\n%s", d1, local)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.Analyses != 1 || m.ResultCache.Hits != 1 {
		t.Fatalf("metrics = %+v; want 2 requests, 1 analysis, 1 result-cache hit", m)
	}
	if m.Stages.Runs != 1 {
		t.Fatalf("stage runs = %d; want 1 (hits spend time in no stage)", m.Stages.Runs)
	}
}

// stripMS removes the wall-clock lines (the only permitted variance).
func stripMS(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "_ms\"") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// badRequest is one malformed analyze body and the answer it gets.
type badRequest struct {
	name, body string
	status     int
	mention    string // the error must name this, when set
}

// badRequests are the malformed bodies of TestAnalyzeBadRequests, also
// FuzzAnalyzeRequest's seeds.
var badRequests = []badRequest{
	{"empty", `{}`, 400, ""},
	{"no sources", `{"sources":[]}`, 400, ""},
	{"retired jobs", `{"sources":[{"path":"a.c","text":"int x;"}],"jobs":1}`, 400, `"jobs"`},
	{"retired solve_jobs", `{"sources":[{"path":"a.c","text":"int x;"}],"solve_jobs":4}`, 400, `"solve_jobs"`},
	{"retired polyrec", `{"sources":[{"path":"a.c","text":"int x;"}],"polyrec":true}`, 400, `"polyrec"`},
	{"missing path", `{"sources":[{"text":"int x;"}]}`, 400, ""},
	{"missing text", `{"sources":[{"path":"a.c"}]}`, 400, ""},
	{"unknown field", `{"sources":[{"path":"a.c","text":"int x;"}],"bogus":1}`, 400, `"bogus"`},
	{"malformed", `{"sources":`, 400, ""},
}

func TestAnalyzeBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	// One byte over the body cap is a 413 naming the cap.
	prefix, suffix := `{"sources":[{"path":"a.c","text":"`, `"}]}`
	oversize := prefix + strings.Repeat("x", maxRequestBytes+1-len(prefix)-len(suffix)) + suffix
	for _, tc := range append(badRequests, badRequest{"over the cap", oversize, 413, "64 MiB"}) {
		resp, data := postAnalyze(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d; want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not JSON with error field", tc.name, data)
		}
		if !strings.Contains(e.Error, tc.mention) {
			t.Errorf("%s: error %q does not name %s", tc.name, e.Error, tc.mention)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze: status %d; want 405", resp.StatusCode)
	}
}

// TestAnalyzeSolveJobsRejected pins how the retired solve_jobs field is
// handled (see checkRetiredField).
func TestAnalyzeSolveJobsRejected(t *testing.T) { checkRetiredField(t, "solve_jobs", "4") }

// TestAnalyzeJobsRejected pins the same for the retired jobs field: the
// constraint-generation pool it sized is gone.
func TestAnalyzeJobsRejected(t *testing.T) { checkRetiredField(t, "jobs", "1") }

// TestAnalyzePolyRecRejected pins the same for the retired polyrec
// field: polymorphic recursion is gone and "poly" is the one
// polymorphic mode.
func TestAnalyzePolyRecRejected(t *testing.T) { checkRetiredField(t, "polyrec", "true") }

// TestAnalyzeSimplifyIgnored: "simplify" is accepted and ignored, since
// polymorphic schemes are always projected. A poly request with it and
// one without are the same result-cache entry: the second is a hit and
// answers the first's bytes.
func TestAnalyzeSimplifyIgnored(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srcs, _ := json.Marshal([]SourceJSON{{Path: "prog.c", Text: prog}})
	r1, d1 := postAnalyze(t, ts, fmt.Sprintf(`{"poly":true,"sources":%s}`, srcs))
	r2, d2 := postAnalyze(t, ts, fmt.Sprintf(`{"poly":true,"simplify":true,"sources":%s}`, srcs))
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("status %d, %d; want 200, 200 (%s / %s)", r1.StatusCode, r2.StatusCode, d1, d2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("simplify request: X-Cache %q; want hit", got)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("simplify request answered different bytes:\n%s\n---\n%s", d1, d2)
	}
	if st := srv.results.Stats(); st.Entries != 1 {
		t.Errorf("result cache %+v; want one entry", st)
	}
}

// checkRetiredField: a body carrying the retired field (value is its
// JSON text) is a 400 that names the field, the rejected request caches
// nothing, and it leaves the result-cache entry of the same sources
// without the field untouched.
func checkRetiredField(t *testing.T, field, value string) {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srcs, _ := json.Marshal([]SourceJSON{{Path: "prog.c", Text: prog}})
	plain := fmt.Sprintf(`{"sources":%s}`, srcs)
	r1, d1 := postAnalyze(t, ts, plain)
	if r1.StatusCode != 200 {
		t.Fatalf("plain request: status %d (%s)", r1.StatusCode, d1)
	}
	r2, d2 := postAnalyze(t, ts, fmt.Sprintf(`{"sources":%s,%q:%s}`, srcs, field, value))
	if r2.StatusCode != 400 {
		t.Fatalf("%s %s: status %d; want 400 (%s)", field, value, r2.StatusCode, d2)
	}
	var e errorJSON
	if err := json.Unmarshal(d2, &e); err != nil || !strings.Contains(e.Error, `"`+field+`"`) {
		t.Fatalf("%s %s: error body %q does not name %q", field, value, d2, field)
	}
	if st := srv.results.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("%s %s: result cache %+v; want the plain request's one entry and one miss", field, value, st)
	}
	r3, d3 := postAnalyze(t, ts, plain)
	if r3.StatusCode != 200 {
		t.Fatalf("plain request again: status %d (%s)", r3.StatusCode, d3)
	}
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("plain request again: X-Cache %q; want hit", got)
	}
	if !bytes.Equal(d1, d3) {
		t.Errorf("cached report differs:\n%s\n---\n%s", d1, d3)
	}
}

// TestAnalyzeConstrainPanic: a panic in a body walk fails the
// request with a 500 naming the stage and the function, the server
// keeps serving, the flight recorder retains the failed request's
// trace for the error reason, and the journal records the failure
// under the request's trace id.
func TestAnalyzeConstrainPanic(t *testing.T) {
	defer constinfer.SetBodyHookForTest(func(name string) {
		if name == "entry" {
			panic("boom")
		}
	})()
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	r1, d1 := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": prog}))
	if r1.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d; want 500 (%s)", r1.StatusCode, d1)
	}
	var e errorJSON
	if err := json.Unmarshal(d1, &e); err != nil || !strings.Contains(e.Error, "constrain: internal error in function entry: boom") {
		t.Errorf("error body %q does not name the stage, the function and the panic", d1)
	}
	id := r1.Header.Get("X-Trace-Id")
	var intro Introspection
	getJSON(t, ts.URL+"/v1/introspect", &intro)
	var reasons []string
	for _, tr := range intro.Retention.Traces {
		if tr.ID == id {
			reasons = tr.Reasons
		}
	}
	if !slices.Contains(reasons, "error") {
		t.Errorf("failed request's trace %s retained with reasons %v; want error", id, reasons)
	}
	var ev EventsResponse
	getJSON(t, ts.URL+"/v1/events", &ev)
	var journaled *obs.Event
	for i, e := range ev.Events {
		if e.Type == "analysis_error" {
			journaled = &ev.Events[i]
		}
	}
	if journaled == nil {
		t.Fatalf("no analysis_error event in %+v", ev.Events)
	}
	if journaled.Level != "error" || journaled.Attrs["trace_id"] != id ||
		!strings.Contains(journaled.Attrs["error"], "constrain: internal error in function entry") {
		t.Errorf("analysis_error event %+v; want level error, trace_id %s and the constrain failure", *journaled, id)
	}

	r2, d2 := postAnalyze(t, ts, analyzeBody(map[string]string{"other.c": "int f(int *p) { return *p; }"}))
	if r2.StatusCode != 200 {
		t.Errorf("request after the panic: status %d; want 200 (%s)", r2.StatusCode, d2)
	}
}

// TestAnalyzeParseErrorStillReports: front-end failures are a valid
// report (diagnostics, no summary), not an HTTP error.
func TestAnalyzeParseErrorStillReports(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	resp, data := postAnalyze(t, ts, analyzeBody(map[string]string{"bad.c": "int f( {"}))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d; want 200 (%s)", resp.StatusCode, data)
	}
	var rep struct {
		Summary     *json.RawMessage  `json:"summary"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary != nil || len(rep.Diagnostics) == 0 {
		t.Fatalf("want nil summary and diagnostics, got %s", data)
	}
}

// TestAnalyzeDeadline: a deadline that cannot be met (it covers queue
// time) answers 504 and counts a timeout.
func TestAnalyzeDeadline(t *testing.T) {
	srv := New(Config{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": prog}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d; want 504", resp.StatusCode)
	}
	if m := srv.Snapshot(); m.Timeouts != 1 {
		t.Fatalf("timeouts = %d; want 1", m.Timeouts)
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(string(data)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, data)
	}
}

// TestConcurrentClients hammers one server with a mix of distinct
// programs from many goroutines; under -race this exercises the caches,
// the limiter, and the metrics. Every response must be byte-identical
// to that program's first response.
func TestConcurrentClients(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const variants = 4
	bodies := make([]string, variants)
	firsts := make([][]byte, variants)
	for i := range bodies {
		text := prog + fmt.Sprintf("int extra%d(int x) { return x + %d; }\n", i, i)
		bodies[i] = analyzeBody(map[string]string{"prog.c": text})
		resp, data := postAnalyze(t, ts, bodies[i])
		if resp.StatusCode != 200 {
			t.Fatalf("prime %d: status %d", i, resp.StatusCode)
		}
		firsts[i] = data
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := (g + i) % variants
				resp, data := postAnalyze(t, ts, bodies[v])
				if resp.StatusCode != 200 {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
				if !bytes.Equal(data, firsts[v]) {
					t.Errorf("goroutine %d: response for variant %d differs from first", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	m := srv.Snapshot()
	if m.Requests != variants+80 || m.Failures != 0 {
		t.Fatalf("metrics = %+v; want %d requests, 0 failures", m, variants+80)
	}
	if m.ResultCache.Hits < 80 {
		t.Fatalf("result-cache hits = %d; want >= 80", m.ResultCache.Hits)
	}
}
