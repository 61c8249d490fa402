package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
)

const watchV1 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

const watchV2 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); probe(buf); }
`

// writeStamped writes a source file with a forced distinct mtime so the
// poll-based change detector sees every edit regardless of filesystem
// timestamp granularity.
func writeStamped(t *testing.T, path, text string, seq int) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	stamp := time.Date(2020, 1, 1, 0, 0, seq, 0, time.UTC)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
}

// cqualDefaults is the config of a cqual run with no mode flags.
func cqualDefaults() driver.Config {
	return driver.Config{Lang: "c", Analyses: []string{"const"}}
}

// testWatcher watches dir with the given settings, capturing both
// output streams.
type testWatcher struct {
	*watcher
	out, errOut strings.Builder
}

func newTestWatcher(dir string, local *localRun) *testWatcher {
	tw := &testWatcher{}
	tw.watcher = newWatcher(dir, local, &tw.out, &tw.errOut)
	return tw
}

// stripMS drops the lines that carry wall-clock timings.
func stripMS(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(line, `_ms"`) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// pollSameAsOneShot polls once and checks that the poll ran the files
// and printed its header followed by exactly what a one-shot cqual with
// the same settings prints for them, timings aside, on both streams.
func (tw *testWatcher) pollSameAsOneShot(t *testing.T, paths ...string) {
	t.Helper()
	tw.out.Reset()
	tw.errOut.Reset()
	if ran, err := tw.poll(context.Background()); err != nil || !ran {
		t.Fatalf("poll: ran=%v err=%v\n%s%s", ran, err, tw.out.String(), tw.errOut.String())
	}
	var out, errOut strings.Builder
	tw.local.run(context.Background(), paths, &out, &errOut)
	want := fmt.Sprintf("watch: run %d: %d file(s)\n", tw.runs, len(paths)) + out.String()
	if got := tw.out.String(); stripMS(got) != stripMS(want) {
		t.Fatalf("watch run stdout differs from a one-shot run:\n%s\n--- want ---\n%s", got, want)
	}
	if got := tw.errOut.String(); got != errOut.String() {
		t.Fatalf("watch run stderr differs from a one-shot run:\n%s\n--- want ---\n%s", got, errOut.String())
	}
}

func TestWatcherDeltaCycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	w := newTestWatcher(dir, &localRun{cfg: cqualDefaults()})
	w.pollSameAsOneShot(t, path)

	// No change: no analysis.
	w.out.Reset()
	if ran, err := w.poll(context.Background()); err != nil || ran || w.out.Len() != 0 {
		t.Fatalf("unchanged poll: ran=%v err=%v output=%q", ran, err, w.out.String())
	}

	// Trailing-function edit: the run matches a one-shot run of the edit.
	writeStamped(t, path, watchV2, 2)
	w.pollSameAsOneShot(t, path)

	// A new file changes the set and re-analyzes.
	extra := filepath.Join(dir, "extra.c")
	writeStamped(t, extra, "int twice(int x) { return x + x; }\n", 3)
	w.pollSameAsOneShot(t, extra, path)
}

// TestWatcherJSON: a -json -poly watch run prints the one-shot JSON
// report.
func TestWatcherJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)
	cfg := cqualDefaults()
	cfg.Options.Poly = true
	w := newTestWatcher(dir, &localRun{cfg: cfg, jsonOut: true})
	w.pollSameAsOneShot(t, path)
	if !strings.Contains(w.out.String(), `"mode": "polymorphic"`) {
		t.Fatalf("not a -json -poly report:\n%s", w.out.String())
	}
}

// TestWatcherRecursiveScan pins that the scanner walks subdirectories
// but skips the trees the go tool would skip (hidden, underscore,
// vendor, testdata) and files of other languages.
func TestWatcherRecursiveScan(t *testing.T) {
	dir := t.TempDir()
	writeStamped(t, filepath.Join(dir, "top.c"), watchV1, 1)
	for _, sub := range []string{"nested", "nested/deeper"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeStamped(t, filepath.Join(dir, "nested", "mid.c"), "int mid(int x) { return x; }\n", 2)
	writeStamped(t, filepath.Join(dir, "nested", "deeper", "leaf.c"), "int leaf(int x) { return x; }\n", 3)
	for _, sub := range []string{"vendor", "testdata", ".hidden", "_skip"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		writeStamped(t, filepath.Join(dir, sub, "no.c"), "int no(int x) { return x; }\n", 4)
	}
	writeStamped(t, filepath.Join(dir, "other.go"), "package p\n", 5)

	w := newWatcher(dir, &localRun{cfg: cqualDefaults()}, io.Discard, io.Discard)
	paths, changed, err := w.scan()
	if err != nil || !changed {
		t.Fatalf("scan: changed=%v err=%v", changed, err)
	}
	want := []string{
		filepath.Join(dir, "nested", "deeper", "leaf.c"),
		filepath.Join(dir, "nested", "mid.c"),
		filepath.Join(dir, "top.c"),
	}
	if len(paths) != len(want) {
		t.Fatalf("scan found %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("scan found %v, want %v", paths, want)
		}
	}
}

// TestWatcherGoLang pins the -lang go watch path: the scanner claims .go
// files (skipping tests), and every run prints what a one-shot -lang go
// run prints.
func TestWatcherGoLang(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.go")
	writeStamped(t, path, "package p\n\nfunc get(p *int) int { return *p }\n", 1)
	writeStamped(t, filepath.Join(dir, "prog_test.go"), "package p\n", 2)

	w := newTestWatcher(dir, &localRun{cfg: driver.Config{Lang: "go", Analyses: []string{"const"}}, verbose: true})
	w.pollSameAsOneShot(t, path)

	writeStamped(t, path, "package p\n\nfunc get(p *int) int { return *p }\n\nfunc put(p *int) { *p = 1 }\n", 3)
	w.pollSameAsOneShot(t, path)
}

// TestWatcherGoSelection pins that a -lang go watch reads the files a
// one-shot run over DIR/... reads: go/build's selection, which leaves
// out a file for another GOOS, a //go:build ignore file and tests.
func TestWatcherGoSelection(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, f := range []struct{ name, text string }{
		{"go.mod", "module example.com/w\n\ngo 1.24\n"},
		{"p/x.go", "package p\n\nvar X int\n\nfunc Set(p *int) { *p = X }\n"},
		{"p/x_windows.go", "package p\n\nvar X int\n\nfunc Get(p *int) int { return *p }\n"},
		{"p/skip.go", "//go:build ignore\n\npackage p\n\nfunc Skip(p *int) {}\n"},
		{"p/x_test.go", "package p\n\nfunc helper(p *int) {}\n"},
	} {
		writeStamped(t, filepath.Join(dir, f.name), f.text, i+1)
	}

	local := &localRun{cfg: driver.Config{Lang: "go", Analyses: []string{"const"}}, verbose: true}
	w := newTestWatcher(dir, local)
	if ran, err := w.poll(context.Background()); err != nil || !ran {
		t.Fatalf("poll: ran=%v err=%v\n%s%s", ran, err, w.out.String(), w.errOut.String())
	}
	var out, errOut strings.Builder
	local.run(context.Background(), []string{dir + "/..."}, &out, &errOut)
	if want := "watch: run 1: 1 file(s)\n" + out.String(); w.out.String() != want {
		t.Fatalf("first watch run differs from a one-shot run over %s/...:\n%s\n--- want ---\n%s", dir, w.out.String(), want)
	}
	if w.errOut.String() != errOut.String() {
		t.Fatalf("watch run stderr differs from a one-shot run:\n%s\n--- want ---\n%s", w.errOut.String(), errOut.String())
	}
}

// TestWatcherEmptyMessage pins that the no-sources message names the
// front end's actual extensions, not a hard-coded .c.
func TestWatcherEmptyMessage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.go")
	writeStamped(t, path, "package p\n\nfunc id(x int) int { return x }\n", 1)

	w := newTestWatcher(dir, &localRun{cfg: driver.Config{Lang: "go"}})
	ctx := context.Background()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("first poll: ran=%v err=%v", ran, err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w.out.Reset()
	if ran, err := w.poll(ctx); err != nil || ran {
		t.Fatalf("empty poll: ran=%v err=%v", ran, err)
	}
	if !strings.Contains(w.out.String(), "no .go files") {
		t.Fatalf("empty message should name .go:\n%s", w.out.String())
	}
}

// TestWatcherConflictFlow pins that conflicts are printed with their
// step-by-step flow path, the -watch mode's whole point as a front door.
func TestWatcherConflictFlow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.c")
	writeStamped(t, path, "void f(const char *s) { *s = 0; }\n", 1)

	w := newTestWatcher(dir, &localRun{cfg: cqualDefaults()})
	w.pollSameAsOneShot(t, path)
	if got := w.out.String(); !strings.Contains(got, "1 qualifier conflict(s)") || !strings.Contains(got, "flow:") {
		t.Fatalf("conflict flow trace missing:\n%s", got)
	}
}

// TestWatcherFrontEndError pins that a broken edit reports the one-shot
// run's errors and the fixed version analyzes as a one-shot run does.
func TestWatcherFrontEndError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	w := newTestWatcher(dir, &localRun{cfg: cqualDefaults()})
	w.pollSameAsOneShot(t, path)

	writeStamped(t, path, "void broken( {", 2)
	w.pollSameAsOneShot(t, path)
	if !strings.Contains(w.errOut.String(), "prog.c:1") {
		t.Fatalf("parse failure not reported:\n%s", w.errOut.String())
	}

	writeStamped(t, path, watchV2, 3)
	w.pollSameAsOneShot(t, path)
}

// TestWatcherObservability pins the watch-mode run log: the
// poll/re-analysis/front-end-failure counters count what actually
// happened, and every re-analysis logs one watch_run record with its
// outcome.
func TestWatcherObservability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	var logged strings.Builder
	w := newWatcher(dir, &localRun{cfg: cqualDefaults()}, io.Discard, io.Discard)
	w.log = slog.New(slog.NewJSONHandler(&logged, nil))
	ctx := context.Background()

	// Poll 1: analysis. Poll 2: unchanged, no analysis. Poll 3: broken
	// edit, front-end failure. Poll 4: fixed edit, analysis.
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}
	writeStamped(t, path, "void broken( {", 2)
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}
	writeStamped(t, path, watchV2, 3)
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}

	if w.polls != 4 {
		t.Errorf("polls = %d, want 4", w.polls)
	}
	if w.reanalyses != 3 {
		t.Errorf("reanalyses = %d, want 3 (unchanged poll must not count)", w.reanalyses)
	}
	if w.feFailures != 1 {
		t.Errorf("front-end failures = %d, want 1", w.feFailures)
	}

	type record struct {
		Level     string
		Event     string
		Run       int
		Conflicts *int
		Solve     string
		Errors    int
	}
	var records []record
	for _, line := range strings.Split(strings.TrimSpace(logged.String()), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		records = append(records, r)
	}
	if len(records) != 3 {
		t.Fatalf("log has %d record(s), want 3 (one per re-analysis):\n%s", len(records), logged.String())
	}
	for i, r := range records {
		if r.Event != "watch_run" || r.Run != i+1 {
			t.Errorf("record %d = %+v; want event watch_run, run %d", i, r, i+1)
		}
	}
	for _, i := range []int{0, 2} {
		if r := records[i]; r.Level != "INFO" || r.Conflicts == nil || *r.Conflicts != 0 || r.Solve == "" {
			t.Errorf("analysis record %d wrong: %+v", i, r)
		}
	}
	if r := records[1]; r.Level != "WARN" || r.Errors == 0 {
		t.Errorf("front-end-failure record wrong: %+v", r)
	}
}
