//go:build linux || darwin

package gofront

import (
	"context"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/driver"
)

// TestCancelledListing: a run cancelled while its go command lists
// returns with the importer unlocked and no goroutine left, and the
// next run lists and type-checks as if the first had not happened. The
// go command here is a script that blocks until the test has seen it
// start, and whose background child keeps its output open for a second
// after the script is killed, so the listing outlasts the run's own
// work. A run cancelled mid-check imports only stubs from then on.
func TestCancelledListing(t *testing.T) {
	goCmd := goCommand(t)
	dir := t.TempDir()
	started := filepath.Join(dir, "started")
	if err := syscall.Mkfifo(started, 0o600); err != nil {
		t.Skip("no named pipes:", err)
	}
	script := filepath.Join(dir, "go")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nsleep 1 &\n: > '"+started+"'\nexec sleep 600\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	imp := newStdImporter(script)
	// Cancelled while go-self's 76 files parse, as it usually is, the run
	// skips its type checks: only Parse's own wait holds it back.
	goSelf := driver.Source{Path: "../../bench/testdata/goself/internal/..."}
	src := driver.TextSource("f.go", "package f\n\nimport \"fmt\"\n\nfunc F(p *int) string { return fmt.Sprint(*p) }\n")

	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listing := make(chan error, 1)
	go func() {
		// Opening the pipe waits for the script to open it.
		f, err := os.Open(started)
		if err == nil {
			f.Close()
		}
		listing <- err
	}()
	parsed := make(chan *Program, 1)
	withStd(imp, func() {
		go func() { parsed <- parseQuietly(ctx, goSelf) }()
		select {
		case err := <-listing:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatal("the go command did not start")
		}
		cancel()
		select {
		case <-parsed:
		case <-time.After(time.Minute):
			t.Fatal("the cancelled run did not return")
		}
	})
	if !imp.mu.TryLock() {
		t.Fatal("the cancelled run returned with the importer locked")
	}
	imp.mu.Unlock()
	if len(imp.exports) != 0 || imp.src != nil {
		t.Errorf("the cancelled run changed the importer: %d listed, %q", len(imp.exports), imp.describe())
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run; %d before", runtime.NumGoroutine(), goroutines)
		}
	}

	// A run cancelled while it type-checks imports nothing more: each
	// import, module-local, GOROOT or another module's, is a stub with
	// no note, no file is parsed and no go command starts.
	ld := newLoader(ctx, token.NewFileSet(), &Program{})
	ld.addRoot(".")
	lists := imp.lists
	withStd(imp, func() {
		for _, path := range []string{"repro/internal/constraint", "net/url", "example.com/other"} {
			if pkg, err := ld.ImportFrom(path, ".", 0); err != nil || pkg.Scope().Len() != 0 {
				t.Errorf("cancelled ImportFrom(%q) = %v, %v; want an empty stub", path, pkg, err)
			}
		}
	})
	if len(ld.prog.notes) != 0 || ld.fset.Base() != 1 || imp.lists != lists {
		t.Errorf("cancelled imports left %d notes, %d bytes of parsed files and %d more go list runs; want none",
			len(ld.prog.notes), ld.fset.Base()-1, imp.lists-lists)
	}

	imp.goCmd = goCmd
	withStd(imp, func() {
		go func() { parsed <- parseQuietly(context.Background(), src) }()
		select {
		case prog := <-parsed:
			for _, code := range []string{"go-import-error", "go-type-error"} {
				if notes := notesWith(prog, code); len(notes) != 0 {
					t.Errorf("the run after the cancelled one: %v", notes)
				}
			}
		case <-time.After(5 * time.Minute):
			t.Fatal("the run after the cancelled one did not return")
		}
	})
}
