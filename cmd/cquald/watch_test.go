package main

import (
	"context"
	"fmt"
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

// coldSummary is the summary line a watch run over the files must
// print: the sizes and conflicts of a cold driver run.
func coldSummary(t *testing.T, cfg driver.Config, paths ...string) string {
	t.Helper()
	res, err := driver.Run(cfg, driver.FileSources(paths...))
	if err != nil || res.Report == nil {
		t.Fatalf("cold run: %v", err)
	}
	conflicts := 0
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts++
		}
	}
	return fmt.Sprintf("%d function(s), %d constraint(s), %d conflict(s)\n  solve ",
		res.Report.Functions, res.Report.Constraints, conflicts)
}

func TestWatcherDeltaCycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{}, &out)
	ctx := context.Background()

	ran, err := w.poll(ctx)
	if err != nil || !ran {
		t.Fatalf("first poll: ran=%v err=%v", ran, err)
	}
	if want := coldSummary(t, driver.Config{}, path); !strings.Contains(out.String(), want) {
		t.Fatalf("first run should match a cold run (%q):\n%s", want, out.String())
	}

	// No change: no analysis.
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || ran {
		t.Fatalf("unchanged poll: ran=%v err=%v output=%q", ran, err, out.String())
	}

	// Trailing-function edit: the run matches a cold run of the edit.
	writeStamped(t, path, watchV2, 2)
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("edit poll: ran=%v err=%v", ran, err)
	}
	if want := coldSummary(t, driver.Config{}, path); !strings.Contains(out.String(), want) {
		t.Fatalf("edit should match a cold run (%q):\n%s", want, out.String())
	}

	// A new file changes the set and re-analyzes.
	writeStamped(t, filepath.Join(dir, "extra.c"), "int twice(int x) { return x + x; }\n", 3)
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("new-file poll: ran=%v err=%v", ran, err)
	}
	if !strings.Contains(out.String(), "2 file(s)") {
		t.Fatalf("new file not picked up:\n%s", out.String())
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

	w := newWatcher(dir, driver.Config{}, &strings.Builder{})
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
// files (skipping tests), and edits re-analyze through the session
// exactly like C.
func TestWatcherGoLang(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.go")
	writeStamped(t, path, "package p\n\nfunc get(p *int) int { return *p }\n", 1)
	writeStamped(t, filepath.Join(dir, "prog_test.go"), "package p\n", 2)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{Lang: "go"}, &out)
	w.exts = []string{".go"}
	ctx := context.Background()

	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("first poll: ran=%v err=%v\n%s", ran, err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "1 file(s)") {
		t.Fatalf("_test.go should be ignored:\n%s", got)
	}
	cfg := driver.Config{Lang: "go"}
	if want := coldSummary(t, cfg, path); !strings.Contains(got, want) {
		t.Fatalf("first run should match a cold run (%q):\n%s", want, got)
	}

	writeStamped(t, path, "package p\n\nfunc get(p *int) int { return *p }\n\nfunc put(p *int) { *p = 1 }\n", 3)
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("edit poll: ran=%v err=%v", ran, err)
	}
	if want := coldSummary(t, cfg, path); !strings.Contains(out.String(), want) {
		t.Fatalf("edit should match a cold run (%q):\n%s", want, out.String())
	}
}

// TestWatcherEmptyMessage pins that the no-sources message names the
// front end's actual extensions, not a hard-coded .c.
func TestWatcherEmptyMessage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.go")
	writeStamped(t, path, "package p\n\nfunc id(x int) int { return x }\n", 1)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{Lang: "go"}, &out)
	w.exts = []string{".go"}
	ctx := context.Background()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("first poll: ran=%v err=%v", ran, err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || ran {
		t.Fatalf("empty poll: ran=%v err=%v", ran, err)
	}
	if !strings.Contains(out.String(), "no .go files") {
		t.Fatalf("empty message should name .go:\n%s", out.String())
	}
}

// TestWatcherConflictFlow pins that conflicts are printed with their
// step-by-step flow path, the -watch mode's whole point as a front door.
func TestWatcherConflictFlow(t *testing.T) {
	dir := t.TempDir()
	writeStamped(t, filepath.Join(dir, "bad.c"),
		"void f(const char *s) { *s = 0; }\n", 1)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{}, &out)
	if ran, err := w.poll(context.Background()); err != nil || !ran {
		t.Fatalf("poll: ran=%v err=%v", ran, err)
	}
	got := out.String()
	if !strings.Contains(got, "1 conflict(s)") || !strings.Contains(got, "flow:") {
		t.Fatalf("conflict flow trace missing:\n%s", got)
	}
}

// TestWatcherFrontEndError pins that a broken edit reports errors and
// the fixed version analyzes as a cold run does.
func TestWatcherFrontEndError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{}, &out)
	ctx := context.Background()
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}

	writeStamped(t, path, "void broken( {", 2)
	out.Reset()
	if ran, err := w.poll(ctx); err != nil || !ran {
		t.Fatalf("broken poll: ran=%v err=%v", ran, err)
	}
	if !strings.Contains(out.String(), "front-end failure") {
		t.Fatalf("parse failure not reported:\n%s", out.String())
	}

	writeStamped(t, path, watchV2, 3)
	out.Reset()
	if _, err := w.poll(ctx); err != nil {
		t.Fatal(err)
	}
	if want := coldSummary(t, driver.Config{}, path); !strings.Contains(out.String(), want) {
		t.Fatalf("run after a front-end error should match a cold run (%q):\n%s", want, out.String())
	}
}

// TestWatcherObservability pins the watch-mode flight-recorder hooks:
// poll/re-analysis/front-end-failure counters count what actually
// happened, and every re-analysis appends a journal event with its
// outcome.
func TestWatcherObservability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	writeStamped(t, path, watchV1, 1)

	var out strings.Builder
	w := newWatcher(dir, driver.Config{}, &out)
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

	if got := w.polls.Value(); got != 4 {
		t.Errorf("polls = %d, want 4", got)
	}
	if got := w.reanalyses.Value(); got != 3 {
		t.Errorf("reanalyses = %d, want 3 (unchanged poll must not count)", got)
	}
	if got := w.feFailures.Value(); got != 1 {
		t.Errorf("front-end failures = %d, want 1", got)
	}

	events, _ := w.journal.Since(0, 0)
	if len(events) != 3 {
		t.Fatalf("journal has %d event(s), want 3 (one per re-analysis): %+v", len(events), events)
	}
	for i, e := range events {
		if e.Type != "watch_run" {
			t.Errorf("event %d type = %q, want watch_run", i, e.Type)
		}
		if e.Attrs["run"] != fmt.Sprint(i+1) {
			t.Errorf("event %d run = %q, want %d", i, e.Attrs["run"], i+1)
		}
	}
	for _, i := range []int{0, 2} {
		if e := events[i]; e.Level != "info" || e.Attrs["conflicts"] != "0" || e.Attrs["solve"] == "" {
			t.Errorf("analysis event %d wrong: %+v", i, e)
		}
	}
	if events[1].Level != "warn" || events[1].Attrs["errors"] == "" {
		t.Errorf("front-end-failure event wrong: %+v", events[1])
	}
}
