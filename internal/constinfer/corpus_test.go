package constinfer

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
)

// loadCorpus parses every testdata C file.
func loadCorpus(t *testing.T) map[string]*cfront.File {
	t.Helper()
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(paths))
	}
	out := map[string]*cfront.File{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := cfront.Parse(path, string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = f
	}
	return out
}

// TestCorpusAllModes: every corpus file and each of the six benchgen
// paper programs analyzes cleanly in mono, poly and the test-only
// full-fragment reference (newReference), and the modes agree position
// by position: every position mono may make const, poly may too, and
// projecting schemes changes no verdict.
func TestCorpusAllModes(t *testing.T) {
	files := loadCorpus(t)
	for _, cfg := range benchgen.PaperSuite() {
		f, err := cfront.Parse(cfg.Name+".c", benchgen.Generate(cfg))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		files[cfg.Name+".c"] = f
	}
	for name, f := range files {
		t.Run(name, func(t *testing.T) {
			var reps []*Report
			for i, run := range []func() *Report{
				func() *Report { rep, _ := Analyze([]*cfront.File{f}, Options{}); return rep },
				func() *Report { rep, _ := Analyze([]*cfront.File{f}, Options{Poly: true}); return rep },
				func() *Report { return analyzeReference([]*cfront.File{f}, Options{Poly: true}) },
			} {
				rep := run()
				if len(rep.Conflicts) > 0 {
					t.Fatalf("mode %d: conflict: %v", i, rep.Conflicts[0].Error())
				}
				if rep.Declared > rep.Inferred || rep.Inferred > rep.Total {
					t.Errorf("mode %d: ordering violated: %d/%d/%d", i, rep.Declared, rep.Inferred, rep.Total)
				}
				reps = append(reps, rep)
			}
			if err := compareModes(reps[0], reps[1], reps[2]); err != nil {
				t.Error(err)
			}
		})
	}
}

// compareModes checks mono, poly and reference reports of one program
// position by position: poly's verdicts are the reference's, and, when
// neither mode reports a conflict, mono's const-able positions are
// poly's too. On a program with a conflict, which both modes report,
// the two modes' verdicts are not ordered.
func compareModes(mono, poly, ref *Report) error {
	ordered := len(mono.Conflicts) == 0 && len(poly.Conflicts) == 0
	if len(mono.Positions) != len(poly.Positions) || len(ref.Positions) != len(poly.Positions) {
		return fmt.Errorf("positions: mono %d, poly %d, reference %d",
			len(mono.Positions), len(poly.Positions), len(ref.Positions))
	}
	for i, p := range poly.Positions {
		m, r := mono.Positions[i], ref.Positions[i]
		if !samePosition(m.Position, p.Position) || !samePosition(r.Position, p.Position) {
			return fmt.Errorf("position %d: mono %+v, poly %+v, reference %+v", i, m.Position, p.Position, r.Position)
		}
		if ordered && m.Verdict != MustNotConst && p.Verdict == MustNotConst {
			return fmt.Errorf("%s/%s depth %d: mono %v, poly %v", p.Func, p.Param, p.Depth, m.Verdict, p.Verdict)
		}
		if r.Verdict != p.Verdict {
			return fmt.Errorf("%s/%s depth %d: poly %v, reference %v", p.Func, p.Param, p.Depth, p.Verdict, r.Verdict)
		}
	}
	return nil
}

// samePosition reports whether two reports' positions name the same
// pointer level of the same parameter or result.
func samePosition(a, b Position) bool {
	return a.Func == b.Func && a.Param == b.Param && a.Index == b.Index && a.Depth == b.Depth && a.Pos == b.Pos
}

// TestCorpusPrintRoundTrip: the C printer round-trips every corpus file
// with identical analysis results.
func TestCorpusPrintRoundTrip(t *testing.T) {
	for name, f := range loadCorpus(t) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			printed := cfront.PrintFile(f)
			f2, err := cfront.Parse(name, printed)
			if err != nil {
				t.Fatalf("reparse: %v\n%s", err, printed)
			}
			r1, err := Analyze([]*cfront.File{f}, Options{Poly: true})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Analyze([]*cfront.File{f2}, Options{Poly: true})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Declared != r2.Declared || r1.Inferred != r2.Inferred || r1.Total != r2.Total {
				t.Errorf("round trip changed results: %d/%d/%d vs %d/%d/%d",
					r1.Declared, r1.Inferred, r1.Total, r2.Declared, r2.Inferred, r2.Total)
			}
		})
	}
}

// TestCorpusStrutilVerdicts spot-checks the string-utility module.
func TestCorpusStrutilVerdicts(t *testing.T) {
	f := loadCorpus(t)["strutil.c"]
	mono, err := Analyze([]*cfront.File{f}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := Analyze([]*cfront.File{f}, Options{Poly: true})
	if err != nil {
		t.Fatal(err)
	}
	// The declared-const reader stays const.
	if p := find(t, mono, "str_hash", "s", 0); p.Verdict != MustConst || !p.Declared {
		t.Errorf("str_hash.s = %v declared=%v", p.Verdict, p.Declared)
	}
	// The undeclared reader is const-able in both modes.
	for _, rep := range []*Report{mono, poly} {
		if p := find(t, rep, "str_count", "s", 0); p.Verdict != Either {
			t.Errorf("str_count.s = %v", p.Verdict)
		}
	}
	// Writers never, in either mode.
	if p := find(t, poly, "str_upper", "s", 0); p.Verdict != MustNotConst {
		t.Errorf("str_upper.s = %v", p.Verdict)
	}
	if p := find(t, poly, "str_reverse", "s", 0); p.Verdict != MustNotConst {
		t.Errorf("str_reverse.s = %v", p.Verdict)
	}
	if p := find(t, poly, "str_truncate_at", "line", 0); p.Verdict != MustNotConst {
		t.Errorf("str_truncate_at.line = %v", p.Verdict)
	}
	// The flow-through pattern: poisoned monomorphically, separated
	// polymorphically.
	if p := find(t, mono, "str_tail_len", "line", 0); p.Verdict != MustNotConst {
		t.Errorf("mono str_tail_len.line = %v", p.Verdict)
	}
	if p := find(t, poly, "str_tail_len", "line", 0); p.Verdict != Either {
		t.Errorf("poly str_tail_len.line = %v", p.Verdict)
	}
	if p := find(t, poly, "str_skip", "s", 0); p.Verdict != Either {
		t.Errorf("poly str_skip.s = %v", p.Verdict)
	}
	if poly.Inferred <= mono.Inferred {
		t.Errorf("no poly gain on strutil: %d vs %d", poly.Inferred, mono.Inferred)
	}
}

// TestCorpusListVerdicts spot-checks the linked-list module.
func TestCorpusListVerdicts(t *testing.T) {
	f := loadCorpus(t)["list.c"]
	rep, err := Analyze([]*cfront.File{f}, Options{Poly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SCCs >= rep.Functions {
		t.Errorf("walk_even/walk_odd should share an SCC: %d SCCs for %d functions",
			rep.SCCs, rep.Functions)
	}
	// The pure reader's struct pointer is const-able.
	if p := find(t, rep, "list_weight", "l", 0); p.Verdict != Either {
		t.Errorf("list_weight.l = %v", p.Verdict)
	}
	// list_push writes fields through its parameters.
	if p := find(t, rep, "list_push", "l", 0); p.Verdict != MustNotConst {
		t.Errorf("list_push.l = %v", p.Verdict)
	}
	if p := find(t, rep, "list_push", "n", 0); p.Verdict != MustNotConst {
		t.Errorf("list_push.n = %v", p.Verdict)
	}
	// list_blank writes through the shared text field: node_new's text
	// parameter feeds that field, so its contents are not const.
	if p := find(t, rep, "node_new", "text", 0); p.Verdict != MustNotConst {
		t.Errorf("node_new.text = %v", p.Verdict)
	}
}

// TestCorpusBufferVerdicts spot-checks the buffer module.
func TestCorpusBufferVerdicts(t *testing.T) {
	f := loadCorpus(t)["buffer.c"]
	rep, err := Analyze([]*cfront.File{f}, Options{Poly: true})
	if err != nil {
		t.Fatal(err)
	}
	// The declared-const interface holds.
	if p := find(t, rep, "buf_append", "s", 0); p.Verdict != MustConst {
		t.Errorf("buf_append.s = %v", p.Verdict)
	}
	if p := find(t, rep, "buf_view", "", 0); p.Verdict != MustConst || !p.Declared {
		t.Errorf("buf_view result = %v declared=%v", p.Verdict, p.Declared)
	}
	// The undeclared reader is found.
	if p := find(t, rep, "buf_len", "b", 0); p.Verdict != Either {
		t.Errorf("buf_len.b = %v", p.Verdict)
	}
	// Suggestions include buf_len.
	found := false
	for _, s := range rep.Suggested {
		if s.Func == "buf_len" {
			found = true
			// Typedefs are macro-expanded (Section 4.2), so the
			// suggestion spells the underlying type.
			if s.New != "unsigned long buf_len(const struct buffer *b)" {
				t.Errorf("buf_len suggestion = %q", s.New)
			}
		}
	}
	if !found {
		t.Error("no suggestion for buf_len")
	}
}

// TestCorpusCompilesWithCC validates the corpus is real C when a system
// compiler is available.
func TestCorpusCompilesWithCC(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		if cc, err = exec.LookPath("gcc"); err != nil {
			t.Skip("no C compiler available")
		}
	}
	paths, _ := filepath.Glob("testdata/*.c")
	for _, path := range paths {
		out, err := exec.Command(cc, "-std=c99", "-fsyntax-only", "-Wall", path).CombinedOutput()
		if err != nil {
			t.Errorf("%s: cc rejected: %v\n%s", path, err, out)
		} else if len(out) > 0 {
			t.Logf("%s: cc warnings:\n%s", path, out)
		}
	}
}

// TestReannotationFixpoint is the paper's §4.2 fixpoint oracle. The
// desired output is the program with every inferable const inserted, so
// analyzing that output must confirm it. Every addable position of a
// monomorphic run is marked const on the defining declaration, the file
// is printed and reparsed, and the re-analysis must report no conflicts
// and every previously must-const or either position as declared. This
// checks that the solver's verdicts are right, not only stable.
//
// Polymorphic mode is excluded on purpose: C declarations are
// monomorphic, so re-annotating a position that is "either" only under
// polymorphism conflicts at a caller that needs it non-const. That is
// the strchr pattern: in testdata/args.c, opt_find's result is "either"
// polymorphically, and args_main writes through it.
func TestReannotationFixpoint(t *testing.T) {
	srcs := map[string]string{}
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(data)
	}
	for _, cfg := range append(benchgen.PaperSuite()[:2], benchgen.ParallelCorpus(5000, 3)) {
		srcs[cfg.Name+".c"] = benchgen.Generate(cfg)
	}
	type key struct {
		fn           string
		index, depth int
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			f, err := cfront.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			a, rep := runStaged(t, []*cfront.File{f}, Options{})
			if len(rep.Conflicts) > 0 {
				t.Fatalf("conflict before re-annotation: %v", rep.Conflicts[0])
			}
			constable := map[key]bool{}
			for _, p := range rep.Positions {
				if p.Verdict != MustConst && p.Verdict != Either {
					continue
				}
				constable[key{p.Func, p.Index, p.Depth}] = true
				if !p.Declared && !markConst(a.funcs[p.Func].decl.Type, p.Index, p.Depth) {
					t.Fatalf("%s %s#%d depth %d: cannot mark const", p.Func, p.Param, p.Index, p.Depth)
				}
			}
			f2, err := cfront.Parse(name, cfront.PrintFile(f))
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			rep2, err := Analyze([]*cfront.File{f2}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Conflicts) > 0 {
				t.Fatalf("re-annotated program conflicts: %v", rep2.Conflicts[0])
			}
			for _, p := range rep2.Positions {
				if constable[key{p.Func, p.Index, p.Depth}] && !p.Declared {
					t.Errorf("%s %s#%d depth %d: inferred const but not declared after re-annotation", p.Func, p.Param, p.Index, p.Depth)
				}
			}
			if rep2.Declared != rep.Inferred || rep2.Inferred != rep.Inferred {
				t.Errorf("declared %d → %d, inferred %d → %d; want both at %d",
					rep.Declared, rep2.Declared, rep.Inferred, rep2.Inferred, rep.Inferred)
			}
			t.Logf("declared %d → %d = inferred %d", rep.Declared, rep2.Declared, rep.Inferred)
		})
	}
}
