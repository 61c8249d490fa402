package server

// Flight-recorder tests: tail retention without client opt-in (the
// PR's acceptance criterion), ring eviction under concurrency, the
// event journal endpoint (including long-poll), introspection, and the
// /metrics content-negotiation matrix.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", url, err, data)
		}
	}
	return resp
}

// TestFlightRecorderRetainsWithoutOptIn is the acceptance criterion:
// a request that errors, and a session request the slow policy keeps
// (the first requests of a latency bucket), are retrievable at
// /v1/traces/<id> without the client having passed ?trace=1.
func TestFlightRecorderRetainsWithoutOptIn(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	// An erroring request (unknown analysis → 400) is retained.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"sources":[{"path":"p.c","text":"int x;"}],"analyses":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-analysis POST: status %d, want 400", resp.StatusCode)
	}
	errID := resp.Header.Get("X-Trace-Id")
	if errID == "" {
		t.Fatal("error response missing X-Trace-Id")
	}
	tr, err := http.Get(ts.URL + "/v1/traces/" + errID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("error request's trace not retained: status %d", tr.StatusCode)
	}

	// A session request is retained by the slow policy, and its trace
	// carries pipeline spans.
	r2, _ := postAnalyze(t, ts, sessionBody("flight", prog))
	if r2.Header.Get("X-Cache") != "session" {
		t.Fatalf("X-Cache = %q, want session", r2.Header.Get("X-Cache"))
	}
	sessID := r2.Header.Get("X-Trace-Id")
	tr2, err := http.Get(ts.URL + "/v1/traces/" + sessID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tr2.Body)
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusOK {
		t.Fatalf("session request's trace not retained: status %d", tr2.StatusCode)
	}
	if !strings.Contains(string(body), "driver.solve") {
		t.Errorf("retained trace missing pipeline spans:\n%.300s", body)
	}

	// The retention shows up in the counters.
	var intro Introspection
	getJSON(t, ts.URL+"/v1/introspect", &intro)
	if intro.Retention.Admitted == 0 || intro.Retention.ByReason["error"] == 0 || intro.Retention.ByReason["slow"] == 0 {
		t.Errorf("retention counters = %+v, want error and slow matches", intro.Retention.RecorderStats)
	}
}

// TestTraceRingEvictionHammer overfills the 32-entry retention ring
// from concurrent requests (run under -race in CI): evicted ids 404
// cleanly and the retention counters reconcile with admissions.
func TestTraceRingEvictionHammer(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// ?trace=1 forces retention, so every request competes
				// for the 32 ring slots.
				resp, err := http.Post(ts.URL+"/v1/analyze?trace=1", "application/json",
					strings.NewReader(analyzeBody(map[string]string{
						"p.c": fmt.Sprintf("int f%d_%d(int *p) { return *p; }", g, i),
					})))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				ids = append(ids, resp.Header.Get("X-Trace-Id"))
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	var intro Introspection
	getJSON(t, ts.URL+"/v1/introspect", &intro)
	ret := intro.Retention
	if ret.Admitted != 40 {
		t.Fatalf("admitted = %d, want 40 (every ?trace=1 request)", ret.Admitted)
	}
	if ret.Admitted != uint64(ret.Resident)+ret.Evicted {
		t.Fatalf("admitted %d != resident %d + evicted %d", ret.Admitted, ret.Resident, ret.Evicted)
	}
	if ret.Resident != 32 {
		t.Fatalf("resident = %d, want ring size 32", ret.Resident)
	}

	// Every id either serves its trace (resident) or 404s (evicted);
	// the split matches the ring exactly.
	var served, missing int
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			served++
		case http.StatusNotFound:
			missing++
		default:
			t.Fatalf("GET /v1/traces/%s: status %d", id, resp.StatusCode)
		}
	}
	if served != 32 || missing != 8 {
		t.Fatalf("served/missing = %d/%d, want 32/8", served, missing)
	}
}

// TestEventsEndpoint covers the journal surface: events appear with
// monotonic sequence numbers, ?since resumes incrementally, and ?wait=1
// long-polls until a new event arrives.
func TestEventsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{SessionEntries: 1}))
	defer ts.Close()

	// With room for one session, a second session id evicts the first
	// and journals a session_evict event.
	postAnalyze(t, ts, sessionBody("ev", prog))
	postAnalyze(t, ts, sessionBody("ev-b", prog))

	var ev EventsResponse
	getJSON(t, ts.URL+"/v1/events", &ev)
	if len(ev.Events) == 0 {
		t.Fatal("no events after a session eviction")
	}
	evicted := 0
	for i, e := range ev.Events {
		if i > 0 && e.Seq <= ev.Events[i-1].Seq {
			t.Fatalf("sequence not monotonic: %+v", ev.Events)
		}
		if e.Type == "session_evict" && e.Attrs["key"] != "" {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("want one session_evict event with a key: %+v", ev.Events)
	}
	if ev.Next != ev.Events[len(ev.Events)-1].Seq {
		t.Fatalf("next = %d, want last seq %d", ev.Next, ev.Events[len(ev.Events)-1].Seq)
	}

	// Resuming from next returns nothing new.
	var ev2 EventsResponse
	getJSON(t, fmt.Sprintf("%s/v1/events?since=%d", ts.URL, ev.Next), &ev2)
	if len(ev2.Events) != 0 || ev2.Next != ev.Next {
		t.Fatalf("resume returned %d events, next %d; want 0, %d", len(ev2.Events), ev2.Next, ev.Next)
	}

	// A long-poll parked on ?wait=1 returns once a new event arrives.
	done := make(chan EventsResponse, 1)
	go func() {
		var ev3 EventsResponse
		getJSON(t, fmt.Sprintf("%s/v1/events?since=%d&wait=1", ts.URL, ev.Next), &ev3)
		done <- ev3
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	postAnalyze(t, ts, sessionBody("ev2", prog))
	select {
	case ev3 := <-done:
		if len(ev3.Events) == 0 {
			t.Fatal("long-poll returned no events after one was appended")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// Malformed since is a 400.
	resp, err := http.Get(ts.URL + "/v1/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("since=banana: status %d, want 400", resp.StatusCode)
	}
}

// TestIntrospectEndpoint checks /v1/introspect exposes retained
// sessions with their last-run stats, worker state, and SLO burn rates.
func TestIntrospectEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxConcurrent: 3}))
	defer ts.Close()

	postAnalyze(t, ts, sessionBody("intro", prog))
	postAnalyze(t, ts, sessionBody("intro", prog+"\nint g(int *q) { return deref(q); }\n"))

	var intro Introspection
	getJSON(t, ts.URL+"/v1/introspect", &intro)
	if intro.Workers.MaxConcurrent != 3 {
		t.Errorf("max_concurrent = %d, want 3", intro.Workers.MaxConcurrent)
	}
	if len(intro.Sessions) != 1 {
		t.Fatalf("sessions = %+v, want one", intro.Sessions)
	}
	last := intro.Sessions[0].Last
	if last == nil || last.Runs != 2 {
		t.Fatalf("session snapshot = %+v, want 2 runs", last)
	}
	if last.Solver.Vars == 0 {
		t.Errorf("session snapshot missing solver stats: %+v", last)
	}
	if intro.Caches.Session.Entries != 1 {
		t.Errorf("session cache entries = %d, want 1", intro.Caches.Session.Entries)
	}
	found := false
	for _, slo := range intro.SLOs {
		if slo.Endpoint == "analyze" {
			found = true
			if slo.ObjectiveMS != 250 || slo.Target != 0.99 {
				t.Errorf("default analyze SLO = %+v", slo)
			}
			for _, w := range []string{"5m", "1h", "6h"} {
				if _, ok := slo.Burn[w]; !ok {
					t.Errorf("missing burn window %q: %+v", w, slo.Burn)
				}
			}
		}
	}
	if !found {
		t.Error("introspection missing the default analyze SLO")
	}
}

// TestMetricsNegotiationMatrix is the satellite's explicit matrix:
// wildcard, excluded, and absent Accept headers get JSON; text/plain
// gets Prometheus; the OpenMetrics accept (and ?format=openmetrics)
// gets OpenMetrics with exemplars and the # EOF terminator.
func TestMetricsNegotiationMatrix(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	// One analyzed request so histograms have a sample and the recorder
	// has a retained trace to use as an exemplar.
	r1, _ := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": prog}))
	traceID := r1.Header.Get("X-Trace-Id")

	cases := []struct {
		accept, wantCT string
	}{
		{"", "application/json"},
		{"*/*", "application/json"},
		{"text/plain;q=0", "application/json"},
		{"text/html,application/xhtml+xml,*/*;q=0.8", "application/json"},
		{"text/plain", "text/plain; version=0.0.4; charset=utf-8"},
		{"application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1",
			"application/openmetrics-text; version=1.0.0; charset=utf-8"},
	}
	for _, c := range cases {
		resp, data := getMetrics(t, ts, c.accept)
		if ct := resp.Header.Get("Content-Type"); ct != c.wantCT {
			t.Errorf("Accept %q: Content-Type = %q, want %q", c.accept, ct, c.wantCT)
		}
		if strings.HasPrefix(c.wantCT, "application/json") {
			var m Metrics
			if err := json.Unmarshal(data, &m); err != nil {
				t.Errorf("Accept %q: JSON shape broken: %v", c.accept, err)
			}
		}
	}

	// ?format= wins over the header.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=openmetrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("?format=openmetrics Content-Type = %q", ct)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF")
	}
	if !strings.Contains(text, "# TYPE cquald_requests counter\n") {
		t.Error("OpenMetrics counter family kept _total suffix")
	}
	want := fmt.Sprintf(`# {trace_id="%s"}`, traceID)
	if !strings.Contains(text, want) {
		t.Errorf("OpenMetrics exposition missing exemplar %q", want)
	}

	// The Prometheus exposition carries no exemplar syntax.
	_, promData := getMetrics(t, ts, "text/plain")
	if strings.Contains(string(promData), "trace_id=") {
		t.Error("Prometheus exposition leaked exemplars")
	}
}
