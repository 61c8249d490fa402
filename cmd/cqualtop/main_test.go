package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestRunOnce drives the dashboard against a real in-process daemon
// with room for one cached result: one clean analyze, a session
// request (uncached), and a second distinct analyze, which evicts the
// first result. Then two frames. The first frame must carry every
// section with live numbers; the second must show a request rate and
// resume the journal tail without re-printing consumed events.
func TestRunOnce(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{MaxConcurrent: 3, ResultEntries: 1}))
	defer ts.Close()

	post := func(body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post(`{"sources":[{"path":"a.c","text":"int id(int x) { return x; }"}]}`)
	post(`{"session":"top","sources":[{"path":"s.c","text":"int one(void) { return 1; }"}]}`)
	post(`{"sources":[{"path":"n.c","text":"int three(void) { return 3; }"}]}`)

	st := newTopState(ts.URL, 8)
	base := time.Unix(1700000000, 0)
	st.now = func() time.Time { return base }

	var frame1 strings.Builder
	if err := st.runOnce(&frame1); err != nil {
		t.Fatal(err)
	}
	got := frame1.String()
	for _, want := range []string{
		"cqualtop — " + ts.URL,
		"requests  3",
		"in-flight 0/3",
		"caches    result 1 entry 0% hit",
		"solver    ",
		"slo",
		"analyze", // the default SLO endpoint
		"5m",      // burn windows rendered short-to-long
		"flight    3 decision(s)",
		"traces    (newest first",
		"events    (journal tail",
		"cache_evict", // "n.c" evicted "a.c"
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[") {
		t.Error("runOnce emitted ANSI escapes; clearing is main's job")
	}

	// Second frame: rate appears, consumed events don't repeat.
	if strings.Contains(got, "session") {
		t.Errorf("frame still shows sessions:\n%s", got)
	}
	firstEvents := strings.Count(got, "cache_evict")
	post(`{"sources":[{"path":"b.c","text":"int id2(int x) { return x; }"}]}`)
	st.now = func() time.Time { return base.Add(2 * time.Second) }
	var frame2 strings.Builder
	if err := st.runOnce(&frame2); err != nil {
		t.Fatal(err)
	}
	got2 := frame2.String()
	if !strings.Contains(got2, "requests  4 (0.5/s)") {
		t.Errorf("second frame missing request rate:\n%s", got2)
	}
	if n := strings.Count(got2, "cache_evict"); n != firstEvents+1 {
		t.Errorf("event tail has %d cache_evict events, want %d (the new eviction appended, consumed ones not refetched)", n, firstEvents+1)
	}
}

// TestRunOnceDown pins the failure mode: a dead daemon is an error,
// not a blank frame.
func TestRunOnceDown(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	st := newTopState(ts.URL, 4)
	if err := st.runOnce(&strings.Builder{}); err == nil {
		t.Fatal("runOnce against a closed server succeeded")
	}
}
