package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// are removed, and session traffic must stay out of the result cache.
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
	for round, src := range rounds {
		resp, cold := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": src}))
		if resp.StatusCode != 200 {
			t.Fatalf("cold round %d: status %d", round, resp.StatusCode)
		}
		if got, want := stripMS(string(reports[round])), stripMS(string(cold)); got != want {
			t.Fatalf("round %d: session report differs from cold:\n%s\n---\n%s", round, got, want)
		}
	}

	m := metricsSnapshot(t, ts)
	if m.Sessions.Entries != 1 || m.Sessions.Misses != 1 || m.Sessions.Hits != 3 {
		t.Fatalf("session store stats: %+v", m.Sessions)
	}
	// Session traffic must not leak into the result cache: the cold
	// verification runs (three distinct source versions) are its only
	// entries.
	if m.ResultCache.Entries != 3 {
		t.Fatalf("result cache entries: %d; want 3 (cold runs only)", m.ResultCache.Entries)
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
	for _, want := range []string{
		`cquald_cache_entries{cache="session"} 1`,
		`cquald_request_seconds_count{cache="session"} 4`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, prom)
		}
	}
}

// TestAnalyzeSessionIsolation pins the session key: two corpus ids
// never share a session, and the same id under a different mode is a
// different session.
func TestAnalyzeSessionIsolation(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	poly, _ := json.Marshal(AnalyzeRequest{
		Sources: []SourceJSON{{Path: "prog.c", Text: sessV1}},
		Session: "corpus-a",
		Poly:    true,
	})
	for _, body := range []string{
		sessionBody("corpus-a", sessV1),
		sessionBody("corpus-b", sessV1), // a different corpus id
		string(poly),                    // same id, different mode
	} {
		if resp, data := postAnalyze(t, ts, body); resp.StatusCode != 200 {
			t.Fatalf("status %d (%s)", resp.StatusCode, data)
		}
	}
	if s := metricsSnapshot(t, ts).Sessions; s.Entries != 3 || s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("session store stats: %+v; want three distinct sessions", s)
	}
}

// TestSessionEviction checks the LRU bound: with room for one session,
// alternating corpora create a fresh session every time.
func TestSessionEviction(t *testing.T) {
	ts := httptest.NewServer(New(Config{SessionEntries: 1}))
	defer ts.Close()

	for _, corpus := range []string{"a", "b", "a"} {
		postAnalyze(t, ts, sessionBody(corpus, sessV1))
	}
	if s := metricsSnapshot(t, ts).Sessions; s.Entries != 1 || s.Misses != 3 || s.Evictions != 2 {
		t.Fatalf("session store stats: %+v; want 1 entry, 3 misses, 2 evictions", s)
	}
}
