package gofront

import (
	"context"
	"go/build"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/driver"
)

// parseSources loads and parses sources as one Go run does, with the
// process's standard-library importer.
func parseSources(t *testing.T, sources ...driver.Source) *Program {
	t.Helper()
	files, loadErrs := frontEnd{}.Load(sources)
	for i, err := range loadErrs {
		if err != nil {
			t.Fatalf("loading %s: %v", files[i].Path, err)
		}
	}
	prog, parseErrs := frontEnd{}.Parse(context.Background(), files, loadErrs)
	for i, err := range parseErrs {
		if err != nil {
			t.Fatalf("parsing %s: %v", files[i].Path, err)
		}
	}
	return prog.(*Program)
}

// parseQuietly is parseSources for a goroutine other than the test's:
// load and syntax errors show only as missing packages.
func parseQuietly(ctx context.Context, sources ...driver.Source) *Program {
	files, loadErrs := frontEnd{}.Load(sources)
	prog, _ := frontEnd{}.Parse(ctx, files, loadErrs)
	return prog.(*Program)
}

// notesWith lists the program's notes whose code is code.
func notesWith(p *Program, code string) []string {
	var out []string
	for _, d := range p.Notes() {
		if d.Code == code {
			out = append(out, d.Pos+": "+d.Message)
		}
	}
	return out
}

// checkFilesParsedOnce fails unless the program's FileSet holds
// exactly want files, one per distinct absolute path.
func checkFilesParsedOnce(t *testing.T, p *Program, want int) {
	t.Helper()
	seen := map[string]bool{}
	n := 0
	p.fset.Iterate(func(f *token.File) bool {
		abs, err := filepath.Abs(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		seen[abs] = true
		n++
		return true
	})
	if n != want || len(seen) != n {
		t.Errorf("the FileSet holds %d files with %d distinct paths; want %d of each", n, len(seen), want)
	}
}

// writeModule writes files, keyed by slash path, under a new module
// example.com/m in a temporary directory, and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/m\n"
	for name, text := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOverlay: when a requested package imports another requested
// package, its dependency check sees the request's text, not the disk
// copy, and no file is parsed twice.
func TestOverlay(t *testing.T) {
	const useText = "package a\n\nimport \"example.com/m/b\"\n\nfunc Use(p *int) int { b.Set(p); return b.Get(p) }\n"
	dir := writeModule(t, map[string]string{
		"a/a.go": useText,
		"b/b.go": "package b\n\nfunc Get(p *int) int { return *p }\n",
	})
	// Set exists only in the request's copy of b.
	edited := "package b\n\nfunc Get(p *int) int { return *p }\n\nfunc Set(p *int) { *p = 1 }\n"
	prog := parseSources(t,
		driver.TextSource(filepath.Join(dir, "a", "a.go"), useText),
		driver.TextSource(filepath.Join(dir, "b", "b.go"), edited))
	if errs := notesWith(prog, "go-type-error"); len(errs) != 0 {
		t.Errorf("type errors with b edited in memory:\n%s", strings.Join(errs, "\n"))
	}
	checkFilesParsedOnce(t, prog, 2)
}

// TestRequestedTypeErrorOnce: a type error in a requested package that
// another requested package imports is reported once, by the package's
// own check, not again by the importer's dependency check.
func TestRequestedTypeErrorOnce(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nfunc Use() int { return b.X }\n",
		"b/b.go": "package b\n\nvar X int = \"s\"\n",
	})
	prog := parseSources(t, driver.Source{Path: filepath.Join(dir, "...")})
	errs := notesWith(prog, "go-type-error")
	if len(errs) != 1 || !strings.Contains(errs[0], filepath.Join("b", "b.go")+":3:13: ") {
		t.Errorf("type errors:\n%s\nwant one, at b/b.go:3:13", strings.Join(errs, "\n"))
	}
}

// TestGoSelfParsedOnce: the go-self snapshot's packages import one
// another, and each of its 76 files is parsed once.
func TestGoSelfParsedOnce(t *testing.T) {
	prog := parseSources(t, driver.Source{Path: "../../bench/testdata/goself/internal/..."})
	checkFilesParsedOnce(t, prog, 76)
}

// TestConcurrentParses: two runs with different GOROOT imports, started
// together on a fresh importer, both type-check: whichever lists second
// waits for the first listing to release the importer.
func TestConcurrentParses(t *testing.T) {
	imp := newStdImporter(goCommand(t))
	srcs := []driver.Source{
		driver.TextSource("f.go", "package f\n\nimport \"fmt\"\n\nfunc F(p *int) string { return fmt.Sprint(*p) }\n"),
		driver.TextSource("u.go", "package u\n\nimport \"net/url\"\n\nfunc U(s *string) (*url.URL, error) { return url.Parse(*s) }\n"),
	}
	withStd(imp, func() {
		var wg sync.WaitGroup
		for _, src := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prog := parseQuietly(context.Background(), src)
				for _, code := range []string{"go-import-error", "go-type-error"} {
					if notes := notesWith(prog, code); len(notes) != 0 {
						t.Errorf("%s: %s", src.Path, strings.Join(notes, "\n"))
					}
				}
			}()
		}
		wg.Wait()
	})
	if d := imp.describe(); !strings.HasPrefix(d, "export data") {
		t.Errorf("importer reports %q; want export data", d)
	}
}

// BenchmarkGoSelfCold is one go-self op with a cold standard-library
// importer: every iteration starts a fresh one, so its go list runs
// while the snapshot parses, as in a fresh process. (The root package's
// BenchmarkGoFrontSelf keeps the process's importer warm.) Run with
//
//	go test -run '^$' -bench 'GoSelfCold$' -benchmem ./internal/gofront
func BenchmarkGoSelfCold(b *testing.B) {
	goCmd := filepath.Join(build.Default.GOROOT, "bin", "go")
	cfg := driver.Config{Lang: "go"}
	src := []driver.Source{{Path: "../../bench/testdata/goself/internal/..."}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		imp := newStdImporter(goCmd)
		var res *driver.Result
		var err error
		withStd(imp, func() { res, err = driver.Run(cfg, src) })
		if err != nil {
			b.Fatal(err)
		}
		if res.Report == nil || res.Report.Functions == 0 {
			b.Fatalf("go-self produced no report: %v", res.Diagnostics)
		}
		if d := imp.describe(); !strings.HasPrefix(d, "export data") {
			b.Fatalf("stdlib importer: %s; want export data", d)
		}
	}
}
