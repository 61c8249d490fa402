package constinfer

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
)

// TestMaximalityOracle checks that every not-const verdict is forced,
// i.e. that the inferred consts are maximal. For each not-const
// position of a program, it declares that one position const, reprints
// the program with cfront's printer, re-analyzes it in the same mode and
// requires a conflict. It runs in mono and poly mode over the testdata
// corpus and the woman-3.0a and patch-2.5 paper programs.
func TestMaximalityOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("re-analyzes each program once per not-const position")
	}
	programs := map[string]string{}
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(path)] = string(data)
	}
	for _, cfg := range benchgen.PaperSuite() {
		if cfg.Name == "woman-3.0a" || cfg.Name == "patch-2.5" {
			programs[cfg.Name+".c"] = benchgen.Generate(cfg)
		}
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{{"mono", Options{}}, {"poly", Options{Poly: true}}} {
		t.Run(mode.name, func(t *testing.T) {
			checked := 0
			for name, src := range programs {
				f := mustParse(t, name, src)
				rep, err := Analyze([]*cfront.File{f}, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Conflicts) > 0 {
					t.Fatalf("%s: conflict before any edit: %v", name, rep.Conflicts[0].Error())
				}
				for _, p := range rep.Positions {
					if p.Verdict != MustNotConst {
						continue
					}
					checked++
					edited, ok := declareConst(f, p.Position)
					if !ok {
						t.Errorf("%s: cannot declare %s/%s depth %d const", name, p.Func, p.Param, p.Depth)
						continue
					}
					rep2, err := Analyze([]*cfront.File{mustParse(t, name, edited)}, mode.opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(rep2.Conflicts) == 0 {
						t.Errorf("%s: %s/%s depth %d is not-const, yet the program declaring it const is accepted",
							name, p.Func, p.Param, p.Depth)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no not-const positions checked")
			}
			t.Logf("%d not-const positions checked", checked)
		})
	}
}

// declareConst prints f with the position declared const in its
// function's definition; f itself is left as it was.
func declareConst(f *cfront.File, p Position) (string, bool) {
	for _, d := range f.Decls {
		if fd, ok := d.(*cfront.FuncDecl); ok && fd.Name == p.Func && fd.Body != nil {
			orig := fd.Type
			defer func() { fd.Type = orig }()
			fd.Type = orig.Clone()
			if !markConst(fd.Type, p.Index, p.Depth) {
				return "", false
			}
			return cfront.PrintFile(f), true
		}
	}
	return "", false
}
