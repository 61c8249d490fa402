package gofront

import (
	"encoding/json"
	"go/token"
	"os"
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
		a, errA := newLoader(token.NewFileSet(), &Program{}).ImportFrom(path, dir, 0)
		b, errB := newLoader(token.NewFileSet(), &Program{}).ImportFrom(path, dir, 0)
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
	prelude := func(path string) []driver.PreludeFile {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return []driver.PreludeFile{{Path: path, Text: string(text)}}
	}
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
