package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/server"
)

// writeSource drops one source file into a temp dir and returns its path.
func writeSource(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRemoteVerbatim pins the -serve wire contract scripts depend
// on: without -json the daemon's report reaches stdout byte-verbatim —
// identical across runs, no trace_id splice — and a clean run prints no
// trace footer.
func TestRunRemoteVerbatim(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()

	path := writeSource(t, "ok.c", "int id(int x) { return x; }\n")
	var out1, out2, errw bytes.Buffer
	if code := runRemote(ts.URL, driver.Config{}, false, []string{path}, &out1, &errw); code != 0 {
		t.Fatalf("clean run exit = %d, want 0\nstderr: %s", code, errw.String())
	}
	if code := runRemote(ts.URL, driver.Config{}, false, []string{path}, &out2, &errw); code != 0 {
		t.Fatalf("second run exit = %d, want 0", code)
	}
	if out1.String() != out2.String() {
		t.Error("plain -serve stdout differs between identical runs")
	}
	if strings.Contains(out1.String(), "trace_id") {
		t.Error("plain -serve report contains trace_id; the splice must be -json only")
	}
	if errw.Len() != 0 {
		t.Errorf("clean runs wrote stderr: %s", errw.String())
	}
}

// TestRunRemoteTraceID pins the flight-recorder surfacing: with -json
// the daemon's X-Trace-Id becomes a leading "trace_id" report member
// whose trace is retrievable from the daemon, and without -json a
// failing run points at it in a stderr footer instead.
func TestRunRemoteTraceID(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()

	// A qualifier conflict: exit 1, and the first request is always
	// tail-retained (first of its latency bucket and the 1-in-K sample).
	path := writeSource(t, "bad.c", "void f(const char *s) { *s = 0; }\n")

	var out, errw bytes.Buffer
	if code := runRemote(ts.URL, driver.Config{}, true, []string{path}, &out, &errw); code != 1 {
		t.Fatalf("conflict run exit = %d, want 1\nstderr: %s", code, errw.String())
	}
	var rep struct {
		TraceID string `json:"trace_id"`
		Summary *struct {
			Conflicts int `json:"conflicts"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("spliced report is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.TraceID == "" {
		t.Fatalf("-json report missing trace_id:\n%s", out.String())
	}
	if rep.Summary == nil || rep.Summary.Conflicts != 1 {
		t.Errorf("splice damaged the report: %+v", rep.Summary)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte("{\n  \"trace_id\": ")) {
		t.Errorf("trace_id not spliced as the leading member:\n%.80s", out.String())
	}
	if strings.Contains(errw.String(), "trace retained") {
		t.Error("-json run printed the human footer too")
	}

	// The id is live: the daemon serves the retained trace.
	resp, err := http.Get(ts.URL + "/v1/traces/" + rep.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/traces/%s: status %d, want 200", rep.TraceID, resp.StatusCode)
	}

	// Human mode: verbatim stdout, footer on stderr.
	out.Reset()
	errw.Reset()
	if code := runRemote(ts.URL, driver.Config{}, false, []string{path}, &out, &errw); code != 1 {
		t.Fatalf("human conflict run exit = %d, want 1", code)
	}
	if strings.Contains(out.String(), "trace_id") {
		t.Error("human run stdout gained trace_id")
	}
	if !strings.Contains(errw.String(), "trace retained by daemon: GET "+ts.URL+"/v1/traces/") {
		t.Errorf("human conflict run missing trace footer:\n%s", errw.String())
	}
}

// TestRunRemoteFrontEndFailure: a parse failure exits 2 through -serve
// and still points the human at the retained trace.
func TestRunRemoteFrontEndFailure(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()

	path := writeSource(t, "broken.c", "void broken( {\n")
	var out, errw bytes.Buffer
	if code := runRemote(ts.URL, driver.Config{}, false, []string{path}, &out, &errw); code != 2 {
		t.Fatalf("broken run exit = %d, want 2\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "/v1/traces/") {
		t.Errorf("front-end failure missing trace footer:\n%s", errw.String())
	}
}

// TestSpliceTraceID pins the splice's defensive edges: absent ids and
// non-indented bodies pass through untouched.
func TestSpliceTraceID(t *testing.T) {
	report := []byte("{\n  \"summary\": {}\n}\n")
	if got := spliceTraceID(report, ""); !bytes.Equal(got, report) {
		t.Error("empty id must not alter the report")
	}
	compact := []byte(`{"summary":{}}`)
	if got := spliceTraceID(compact, "abc"); !bytes.Equal(got, compact) {
		t.Error("non-indented body must pass through verbatim")
	}
	got := spliceTraceID(report, `we"ird`)
	if !json.Valid(got) {
		t.Errorf("spliced report with quoted id is invalid JSON: %s", got)
	}
}
