package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
)

const sessV1 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

const sessV2 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); probe(buf); }
`

// sessBroken fails the C front end.
const sessBroken = `void use(char *buf) { sink(buf`

func sessionBody(session, src string) string {
	b, _ := json.Marshal(AnalyzeRequest{
		Sources: []SourceJSON{{Path: "prog.c", Text: src}},
		Session: session,
	})
	return string(b)
}

// metricsSnapshot decodes the JSON /metrics snapshot.
func metricsSnapshot(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAnalyzeSession drives one corpus through v1 → v2 → a front-end
// error → v1 with a session id. Every session report must equal a
// sessionless run of the same sources byte for byte once the timings
// are removed, and session traffic must leave the result cache alone.
func TestAnalyzeSession(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	rounds := []string{sessV1, sessV2, sessBroken, sessV1}
	var reports [][]byte
	for round, src := range rounds {
		resp, data := postAnalyze(t, ts, sessionBody("corpus-a", src))
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "session" {
			t.Fatalf("round %d: status %d, X-Cache %q; want 200 session",
				round, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		reports = append(reports, data)
	}
	// Session requests neither read nor write the result cache.
	m := metricsSnapshot(t, ts)
	if rc := m.ResultCache; rc.Hits != 0 || rc.Misses != 0 || rc.Entries != 0 {
		t.Fatalf("result cache after session traffic: %+v; want untouched", rc)
	}
	if m.Sessions != (cache.Stats{}) {
		t.Fatalf("sessions block: %+v; want zero", m.Sessions)
	}
	for round, src := range rounds {
		resp, cold := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": src}))
		if resp.StatusCode != 200 {
			t.Fatalf("cold round %d: status %d", round, resp.StatusCode)
		}
		if got, want := stripMS(string(reports[round])), stripMS(string(cold)); got != want {
			t.Fatalf("round %d: session report differs from cold:\n%s\n---\n%s", round, got, want)
		}
	}
	// The cold runs (three distinct source versions, one repeat) are the
	// result cache's only traffic.
	if rc := metricsSnapshot(t, ts).ResultCache; rc.Hits != 1 || rc.Misses != 3 || rc.Entries != 3 {
		t.Fatalf("result cache after cold runs: %+v; want 1 hit, 3 misses, 3 entries", rc)
	}

	promResp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `cquald_request_seconds_count{cache="session"} 4`; !strings.Contains(string(prom), want) {
		t.Fatalf("prometheus exposition missing %q:\n%s", want, prom)
	}
}

// TestAnalyzeSessionConcurrent sends two versions of one corpus under
// the same session id at once. Nothing serializes them, and each must
// answer what a cold run of its own sources does.
func TestAnalyzeSessionConcurrent(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	srcs := []string{sessV1, sessV2}
	type answer struct {
		status int
		xcache string
		body   []byte
	}
	answers := make([]answer, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
				strings.NewReader(sessionBody("shared", src)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = answer{resp.StatusCode, resp.Header.Get("X-Cache"), data}
		}(i, src)
	}
	wg.Wait()
	for i, src := range srcs {
		a := answers[i]
		if a.status != 200 || a.xcache != "session" {
			t.Fatalf("request %d: status %d, X-Cache %q; want 200 session (%s)", i, a.status, a.xcache, a.body)
		}
		resp, cold := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": src}))
		if resp.StatusCode != 200 {
			t.Fatalf("cold %d: status %d", i, resp.StatusCode)
		}
		if got, want := stripMS(string(a.body)), stripMS(string(cold)); got != want {
			t.Fatalf("request %d: session report differs from cold:\n%s\n---\n%s", i, got, want)
		}
	}
}
