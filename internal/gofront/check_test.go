package gofront

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
)

// TestImportRouting: standard-library paths go to the process-wide
// importer, so two runs' loaders get the same *types.Package; paths that
// resolve outside GOROOT stay with the run's own importer.
func TestImportRouting(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{"fmt", "net/http"} {
		if !inGoroot(path, dir) {
			t.Errorf("inGoroot(%q) = false; want true", path)
		}
		a, errA := newLoader(context.Background(), token.NewFileSet(), &Program{}).ImportFrom(path, dir, 0)
		b, errB := newLoader(context.Background(), token.NewFileSet(), &Program{}).ImportFrom(path, dir, 0)
		if errA != nil || errB != nil || !a.Complete() || a != b {
			t.Errorf("%q: two runs imported %p (%v) and %p (%v); want one shared complete package", path, a, errA, b, errB)
		}
	}
	// "../src" names a directory under GOROOT/src by spelling alone; from
	// dir it resolves next to dir, outside GOROOT.
	for _, path := range []string{"nosuchpkg/x", "../src"} {
		if inGoroot(path, dir) {
			t.Errorf("inGoroot(%q) = true; want false", path)
		}
	}
}

// TestWarmRunMatchesFirst runs each input twice in one process: the
// second run, served by the warm standard-library importer, must
// report byte for byte what the first did, timings aside. A failed
// import is not cached, so its note appears on both runs, whether the
// per-run importer ("nosuchpkg/x") or the shared one ("go", a GOROOT
// directory without Go files) failed.
func TestWarmRunMatchesFirst(t *testing.T) {
	prelude := func(path string) []driver.PreludeFile { return readPrelude(t, path) }
	cases := []struct {
		name string
		cfg  driver.Config
		src  driver.Source
		note string
	}{
		{"go-fdstate", driver.Config{Analyses: []string{"fdstate"}, Preludes: prelude("../../examples/go-fdstate/fd.q")},
			driver.Source{Path: "../../examples/go-fdstate/dirty"}, ""},
		{"go-taint", driver.Config{Analyses: []string{"taint"}, Preludes: prelude("../../examples/go-taint/go.q")},
			driver.Source{Path: "../../examples/go-taint/dirty"}, ""},
		{"missing-import", driver.Config{},
			driver.TextSource("m.go", "package m\n\nimport \"nosuchpkg/x\"\n\nfunc f(p *int) { *p = 1 }\n"), `import \"nosuchpkg/x\"`},
		{"goroot-import-error", driver.Config{},
			driver.TextSource("g.go", "package g\n\nimport \"go\"\n\nfunc f(p *int) { *p = 1 }\n"), `import \"go\"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Lang = "go"
			var reports [2]string
			for i := range reports {
				res, err := driver.Run(c.cfg, []driver.Source{c.src})
				if err != nil {
					t.Fatal(err)
				}
				reports[i] = reportWithoutTimings(t, res)
				if c.note != "" && !strings.Contains(reports[i], `"go-import-error"`) {
					t.Errorf("run %d: no go-import-error note:\n%s", i+1, reports[i])
				}
				if !strings.Contains(reports[i], c.note) {
					t.Errorf("run %d: report does not mention %s:\n%s", i+1, c.note, reports[i])
				}
			}
			if reports[0] != reports[1] {
				t.Errorf("warm run differs from the first\n--- first ---\n%s\n--- warm ---\n%s", reports[0], reports[1])
			}
		})
	}
}

// readPrelude reads one prelude file for a driver.Config.
func readPrelude(t *testing.T, path string) []driver.PreludeFile {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return []driver.PreludeFile{{Path: path, Text: string(text)}}
}

// reportWithoutTimings renders res.JSON() with its wall-clock timings
// block removed.
func reportWithoutTimings(t *testing.T, res *driver.Result) string {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "timings")
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// goCommand is GOROOT's go command, which the export-data importer runs.
// With go on PATH the export path must be the one taken, so a test that
// needs it skips only when there is no go command at all.
func goCommand(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH:", err)
	}
	return filepath.Join(build.Default.GOROOT, "bin", "go")
}

// runWith runs one Go pipeline with imp as the process's
// standard-library importer and returns its report without timings.
func runWith(t *testing.T, imp *stdImporter, cfg driver.Config, src driver.Source) string {
	t.Helper()
	cfg.Lang = "go"
	var res *driver.Result
	var err error
	withStd(imp, func() { res, err = driver.Run(cfg, []driver.Source{src}) })
	if err != nil {
		t.Fatal(err)
	}
	return reportWithoutTimings(t, res)
}

// withStd calls f with imp as the process's standard-library importer.
func withStd(imp *stdImporter, f func()) {
	old := std
	std = imp
	defer func() { std = old }()
	f()
}

// TestImportersAgree: a fresh importer reading export data and a fresh
// one type-checking GOROOT from source give byte-identical reports,
// timings aside.
func TestImportersAgree(t *testing.T) {
	goCmd := goCommand(t)
	export := newStdImporter(goCmd)
	source := newStdImporter(goCmd)
	source.useSource("forced by the test")
	cases := []struct {
		name string
		cfg  driver.Config
		path string
	}{
		{"go-fdstate", driver.Config{Analyses: []string{"fdstate"}, Preludes: readPrelude(t, "../../examples/go-fdstate/fd.q")}, "../../examples/go-fdstate/dirty"},
		{"go-taint", driver.Config{Analyses: []string{"taint"}, Preludes: readPrelude(t, "../../examples/go-taint/go.q")}, "../../examples/go-taint/dirty"},
		{"constraint", driver.Config{}, "../constraint"},
	}
	for _, c := range cases {
		got := runWith(t, export, c.cfg, driver.Source{Path: c.path})
		want := runWith(t, source, c.cfg, driver.Source{Path: c.path})
		if got != want {
			t.Errorf("%s: export data and source reports differ\n--- export ---\n%s\n--- source ---\n%s", c.name, got, want)
		}
	}
	if d := export.describe(); !strings.HasPrefix(d, "export data") {
		t.Errorf("export importer reports %q; want the export path taken", d)
	}
	if d := source.describe(); d != "source (forced by the test)" {
		t.Errorf("source importer reports %q", d)
	}
}

// TestStdFallback: the source importer takes over the whole process
// only before any export-data package was handed out, and a cancelled
// run leaves the importer as it found it.
func TestStdFallback(t *testing.T) {
	goCmd := goCommand(t)
	dir := t.TempDir()
	ctx := context.Background()
	fdstate := driver.Config{Analyses: []string{"fdstate"}, Preludes: readPrelude(t, "../../examples/go-fdstate/fd.q")}
	example := driver.Source{Path: "../../examples/go-fdstate/dirty"}

	t.Run("no go command", func(t *testing.T) {
		imp := newStdImporter(filepath.Join(dir, "go"))
		want := runWith(t, newStdImporter(goCmd), fdstate, example)
		for run := 1; run <= 2; run++ {
			if got := runWith(t, imp, fdstate, example); got != want {
				t.Errorf("run %d: source fallback report differs\n--- fallback ---\n%s\n--- export ---\n%s", run, got, want)
			}
			if d := imp.describe(); !strings.HasPrefix(d, "source (go list:") || len(imp.exports) != 0 {
				t.Errorf("run %d: importer reports %q with %d listed packages; want source for the whole process", run, d, len(imp.exports))
			}
		}
	})

	// Real export data for fmt, from a throwaway importer.
	probe := newStdImporter(goCmd)
	if _, err := probe.ImportFrom(ctx, "fmt", dir); err != nil {
		t.Fatal(err)
	}
	fmtExport, err := os.ReadFile(probe.exports["fmt"])
	if err != nil {
		t.Fatal(err)
	}
	// A newer release's export data: the version word after the "u"
	// format byte is past every version this decoder knows.
	newer := bytes.Clone(fmtExport)
	at := bytes.Index(newer, []byte("\n$$B\nu"))
	if at < 0 {
		t.Fatal("no unified export data header in fmt's export data")
	}
	copy(newer[at+len("\n$$B\nu"):], []byte{0xff, 0xff, 0xff, 0x7f})
	for name, data := range map[string][]byte{"garbage": []byte("not export data\n"), "newer release": newer} {
		t.Run("unreadable export data/"+name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "fmt.a")
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			imp := newStdImporter(goCmd)
			imp.exports["fmt"] = file
			pkg, err := imp.ImportFrom(ctx, "fmt", dir)
			if err != nil || !pkg.Complete() || pkg.Scope().Lookup("Println") == nil {
				t.Fatalf("ImportFrom(fmt) = %v, %v; want the source-checked package", pkg, err)
			}
			if d := imp.describe(); !strings.HasPrefix(d, "source (") || imp.served != 0 {
				t.Errorf("importer reports %q after serving %d export-data packages; want source before anything was served", d, imp.served)
			}
		})
	}

	t.Run("no mixing after export data was served", func(t *testing.T) {
		imp := newStdImporter(goCmd)
		fmtPkg, err := imp.ImportFrom(ctx, "fmt", dir)
		if err != nil || imp.served != 1 {
			t.Fatalf("ImportFrom(fmt) = %v after serving %d; want export data", err, imp.served)
		}
		if _, err := imp.ImportFrom(ctx, "go", dir); err == nil {
			t.Fatal(`ImportFrom("go") succeeded; "go" holds no Go files`)
		}
		garbage := filepath.Join(t.TempDir(), "url.a")
		if err := os.WriteFile(garbage, []byte("not export data\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		imp.exports["net/url"] = garbage
		if _, err := imp.ImportFrom(ctx, "net/url", dir); err == nil {
			t.Fatal("ImportFrom(net/url) over unreadable export data succeeded")
		}
		report := runWith(t, imp, driver.Config{}, driver.TextSource("g.go", "package g\n\nimport _ \"go\"\n"))
		if !strings.Contains(report, `"go-import-error"`) || !strings.Contains(report, `import \"go\"`) {
			t.Errorf(`import "go" after export data was served: no go-import-error note:\n%s`, report)
		}
		// Function types are identical only if their io.Writer is one
		// named type, so a second io would be a type error here.
		const src = `package h

import (
	"fmt"
	"io"
	"net/http"
)

var _ func(io.Writer, ...any) (int, error) = fmt.Fprint

func write(r *http.Request) func(io.Writer) error { return r.Write }
`
		report = runWith(t, imp, driver.Config{}, driver.TextSource("h.go", src))
		if strings.Contains(report, `"go-type-error"`) || strings.Contains(report, `"go-import-error"`) {
			t.Errorf("fmt, io and net/http do not type-check together:\n%s", report)
		}
		httpPkg, err := imp.ImportFrom(ctx, "net/http", dir)
		if err != nil {
			t.Fatal(err)
		}
		if io := importOf(fmtPkg, "io"); io == nil || io != importOf(httpPkg, "io") {
			t.Errorf("fmt and net/http import different io packages")
		}
		if d := imp.describe(); !strings.HasPrefix(d, "export data") {
			t.Errorf("importer reports %q; want export data throughout", d)
		}
	})

	t.Run("cancelled run", func(t *testing.T) {
		imp := newStdImporter(goCmd)
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		imp.prefetch(cancelled, []string{"fmt"})()
		if _, err := imp.ImportFrom(cancelled, "fmt", dir); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled ImportFrom(fmt) error = %v; want context.Canceled", err)
		}
		if len(imp.exports) != 0 || imp.src != nil || imp.served != 0 {
			t.Errorf("a cancelled run changed the importer: %d listed, %q", len(imp.exports), imp.describe())
		}
		// The cancelled listing never started the go command.
		if _, err := imp.ImportFrom(ctx, "fmt", dir); err != nil || !strings.Contains(imp.describe(), " listed by 1 go list run in ") {
			t.Errorf("ImportFrom(fmt) after the cancelled run = %v, %q; want export data listed by one go list run", err, imp.describe())
		}
	})
}

// importOf finds path among pkg's imports.
func importOf(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// TestModulePathComment: a go.mod's module line may carry a trailing
// comment and quote its path; module-local imports must resolve the
// same either way.
func TestModulePathComment(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nfunc Get(p *int) int { return *p }\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nfunc Use(p *int) int { return a.Get(p) }\n",
	})
	var want string
	for _, mod := range []string{
		"module example.com/m\n",
		"module example.com/m // main module\n",
		"module \"example.com/m\" // quoted\n",
		"module `example.com/m`\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
			t.Fatal(err)
		}
		got := runWith(t, std, driver.Config{}, driver.Source{Path: dir + "/..."})
		if want == "" {
			want = got
			if !strings.Contains(want, `"example.com/m/a.Get"`) || strings.Contains(want, "go-import-error") {
				t.Fatalf("%q: a.Get not resolved as example.com/m/a.Get:\n%s", mod, want)
			}
		} else if got != want {
			t.Errorf("%q reports differently from the comment-free go.mod\n--- got ---\n%s\n--- want ---\n%s", mod, got, want)
		}
	}
}
