package gofront

import (
	"context"
	"go/build"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
	writeFiles(t, dir, files)
	return dir
}

// writeFiles writes files, keyed by slash path, under dir.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, text := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crossModule writes module example.com/a from a and module
// example.com/b, which requires a through a replace directive, from b,
// side by side in a temporary directory, and returns b's root. b's
// go.mod ends with b["go.mod"], if given. The go command resolves b's
// imports offline.
func crossModule(t *testing.T, a, b map[string]string) string {
	t.Helper()
	goCommand(t)
	t.Setenv("GOFLAGS", "-mod=mod")
	t.Setenv("GOPROXY", "off")
	root := t.TempDir()
	a["go.mod"] = "module example.com/a\n\ngo 1.23\n"
	b["go.mod"] = "module example.com/b\n\ngo 1.23\n\nrequire example.com/a v0.0.0\n\nreplace example.com/a => ../a\n" + b["go.mod"]
	writeFiles(t, filepath.Join(root, "a"), a)
	writeFiles(t, filepath.Join(root, "b"), b)
	return filepath.Join(root, "b")
}

// checkNoImportNotes fails on any type or import error note.
func checkNoImportNotes(t *testing.T, p *Program) {
	t.Helper()
	for _, code := range []string{"go-type-error", "go-import-error"} {
		if notes := notesWith(p, code); len(notes) != 0 {
			t.Errorf("%s notes:\n%s", code, strings.Join(notes, "\n"))
		}
	}
}

// TestCrossModuleImport: a package of another module is checked from
// its files like a module-local one, so the standard-library types in
// its API are the ones the requesting package imports, and every run
// reads its files afresh.
func TestCrossModuleImport(t *testing.T) {
	const aText = `package a

import (
	"context"
	"io"
	"time"
)

func Wait(ctx context.Context, d time.Duration, w io.Writer) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		_, err := io.WriteString(w, "done\n")
		return err
	}
}
`
	const bText = `package b

import (
	"context"
	"os"
	"time"

	"example.com/a"
)

func Run() error { return a.Wait(context.Background(), time.Second, os.Stdout) }
`
	bDir := crossModule(t, map[string]string{"a.go": aText}, map[string]string{"b.go": bText})
	for run := 1; run <= 2; run++ {
		prog := parseSources(t, driver.Source{Path: bDir})
		checkNoImportNotes(t, prog)
		if len(prog.Pkgs) != 1 {
			t.Fatalf("run %d: %d requested packages; want b alone", run, len(prog.Pkgs))
		}
		b := prog.Pkgs[0].Pkg
		a := importOf(b, "example.com/a")
		if a == nil {
			t.Fatalf("run %d: b does not import example.com/a", run)
		}
		if ctx := importOf(b, "context"); ctx == nil || ctx != importOf(a, "context") {
			t.Errorf("run %d: a and b import different context packages", run)
		}
		if edited := a.Scope().Lookup("Edited") != nil; edited != (run == 2) {
			t.Errorf("run %d: a declares Edited = %v; want it only after the edit", run, edited)
		}
		writeFiles(t, filepath.Join(bDir, "..", "a"), map[string]string{"a.go": aText + "\nfunc Edited() {}\n"})
	}
}

// TestTransitiveModuleImport: a dependency's imports resolve in the
// requesting package's module, not the dependency's. a imports c, which
// only b's go.mod provides, so a's c is b's c.
func TestTransitiveModuleImport(t *testing.T) {
	bDir := crossModule(t, map[string]string{
		"a.go": "package a\n\nimport \"example.com/c\"\n\nfunc New() c.T { return c.T{} }\n",
	}, map[string]string{
		"go.mod": "\nrequire example.com/c v0.0.0\n\nreplace example.com/c => ../c\n",
		"b.go":   "package b\n\nimport (\n\t\"example.com/a\"\n\t\"example.com/c\"\n)\n\nfunc Get() c.T { return a.New() }\n",
	})
	writeFiles(t, filepath.Join(bDir, "..", "c"), map[string]string{
		"go.mod": "module example.com/c\n\ngo 1.23\n",
		"c.go":   "package c\n\ntype T struct{}\n",
	})
	prog := parseSources(t, driver.Source{Path: bDir})
	checkNoImportNotes(t, prog)
	b := prog.Pkgs[0].Pkg
	c := importOf(b, "example.com/c")
	if c == nil || c.Scope().Lookup("T") == nil || c != importOf(importOf(b, "example.com/a"), "example.com/c") {
		t.Errorf("a and b do not share b's example.com/c")
	}
}

// TestNestedModuleImport: a nested module resolves through the go
// command, not under its parent module's root, whether the parent's
// tree leaves it out (as a module zip does) or holds another copy of it.
func TestNestedModuleImport(t *testing.T) {
	for name, inA := range map[string]map[string]string{
		"absent": {},
		"shadowed": {
			"sub/go.mod": "module example.com/a/sub\n\ngo 1.23\n",
			"sub/sub.go": "package sub\n\nfunc Old() int { return 0 }\n",
			"sub/d/d.go": "package d\n\nfunc Old() int { return 0 }\n",
		},
	} {
		t.Run(name, func(t *testing.T) {
			inA["a.go"] = "package a\n\nfunc A() int { return 1 }\n"
			bDir := crossModule(t, inA, map[string]string{
				"go.mod": "\nrequire example.com/a/sub v0.0.0\n\nreplace example.com/a/sub => ../asub\n",
				"b.go":   "package b\n\nimport (\n\t\"example.com/a\"\n\t\"example.com/a/sub\"\n\t\"example.com/a/sub/d\"\n)\n\nfunc Sum() int { return a.A() + sub.Sub() + d.D() }\n",
			})
			writeFiles(t, filepath.Join(bDir, "..", "asub"), map[string]string{
				"go.mod": "module example.com/a/sub\n\ngo 1.23\n",
				"sub.go": "package sub\n\nfunc Sub() int { return 2 }\n",
				"d/d.go": "package d\n\nfunc D() int { return 3 }\n",
			})
			prog := parseSources(t, driver.Source{Path: bDir})
			checkNoImportNotes(t, prog)
			if notes := notesWith(prog, "go-load-error"); len(notes) != 0 {
				t.Errorf("go-load-error notes:\n%s", strings.Join(notes, "\n"))
			}
		})
	}
}

// TestInvalidFileListed: a file whose //go:build line go/build cannot
// read is listed, as a file without constraints would be; test files
// and files excluded for cgo stay out.
func TestInvalidFileListed(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"x/x.go":        "package x\n",
		"x/bad.go":      "//go:build (\n\npackage x\n",
		"x/bad_test.go": "//go:build (\n\npackage x\n",
		"x/cgo.go":      "package x\n\n// #cgo CFLAGS\nimport \"C\"\n",
	})
	names, err := goFilesIn(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		names[i] = filepath.Base(name)
	}
	if want := []string{"bad.go", "x.go"}; !slices.Equal(names, want) {
		t.Errorf("goFilesIn = %v; want %v", names, want)
	}
}

// TestFileSelection: a package's files are the ones the go command
// builds with cgo disabled, whether the package is requested or another
// module's dependency. The other files redeclare X, so one of them
// taken in would be a type error.
func TestFileSelection(t *testing.T) {
	bDir := crossModule(t, map[string]string{
		"x/x.go":         "//go:build !windows\n\npackage x\n\nfunc X() int { return 1 }\n",
		"x/x_windows.go": "package x\n\nfunc X() int { return 2 }\n",
		"x/gen.go":       "//go:build ignore\n\npackage main\n\nfunc X() int { return 3 }\n",
		"x/cgo.go":       "package x\n\nimport \"C\"\n\nfunc X() int { return 4 }\n",
	}, map[string]string{
		"b.go": "package b\n\nimport \"example.com/a/x\"\n\nfunc Y() int { return x.X() }\n",
	})
	xDir := filepath.Join(filepath.Dir(bDir), "a", "x")
	cmd := exec.Command(goCommand(t), "list", "-f", "{{.GoFiles}}", ".")
	cmd.Dir = xDir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	want := strings.Fields(strings.Trim(strings.TrimSpace(string(out)), "[]"))

	requested := parseSources(t, driver.Source{Path: xDir})
	checkNoImportNotes(t, requested)
	var got []string
	for _, name := range requested.FileNames() {
		got = append(got, filepath.Base(name))
	}
	if !slices.Equal(got, want) {
		t.Errorf("requested package: files %v; go list builds %v", got, want)
	}

	dependent := parseSources(t, driver.Source{Path: bDir})
	checkNoImportNotes(t, dependent)
	got = nil
	dependent.fset.Iterate(func(f *token.File) bool {
		if filepath.Dir(f.Name()) == xDir {
			got = append(got, filepath.Base(f.Name()))
		}
		return true
	})
	if !slices.Equal(got, want) {
		t.Errorf("dependency: files %v; go list builds %v", got, want)
	}
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
