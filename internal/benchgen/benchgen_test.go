package benchgen

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/constinfer"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := PaperSuite()[0]
	a := Generate(cfg)
	b := Generate(cfg)
	if a != b {
		t.Fatal("generation is not deterministic")
	}
	cfg2 := cfg
	cfg2.Seed++
	if Generate(cfg2) == a {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGenerateParses(t *testing.T) {
	for _, cfg := range PaperSuite() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			src := Generate(cfg)
			f, err := cfront.Parse(cfg.Name+".c", src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v", err)
			}
			funcs := 0
			for _, d := range f.Decls {
				if fd, ok := d.(*cfront.FuncDecl); ok && fd.Body != nil {
					funcs++
				}
			}
			if funcs < 10 {
				t.Errorf("only %d functions generated", funcs)
			}
		})
	}
}

func TestGenerateLineTargets(t *testing.T) {
	for _, cfg := range PaperSuite() {
		src := Generate(cfg)
		lines := strings.Count(src, "\n")
		lo := cfg.TargetLines - 60
		hi := cfg.TargetLines + cfg.TargetLines/5
		if lines < lo || lines > hi {
			t.Errorf("%s: %d lines, want within [%d, %d]", cfg.Name, lines, lo, hi)
		}
	}
}

// TestGenerateAnalyzesCleanly: the generated programs are correct C, so
// both inference modes must find zero conflicts, and the paper's ordering
// Declared ≤ Mono ≤ Poly ≤ Total must hold.
func TestGenerateAnalyzesCleanly(t *testing.T) {
	for _, cfg := range PaperSuite()[:3] { // the small ones, for test speed
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			src := Generate(cfg)
			f, err := cfront.Parse(cfg.Name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := constinfer.Analyze([]*cfront.File{f}, constinfer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(mono.Conflicts) > 0 {
				t.Fatalf("mono conflicts: %v", mono.Conflicts[0].Error())
			}
			poly, err := constinfer.Analyze([]*cfront.File{f}, constinfer.Options{Poly: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(poly.Conflicts) > 0 {
				t.Fatalf("poly conflicts: %v", poly.Conflicts[0].Error())
			}
			if !(mono.Declared <= mono.Inferred && mono.Inferred <= poly.Inferred && poly.Inferred <= mono.Total) {
				t.Errorf("ordering violated: declared=%d mono=%d poly=%d total=%d",
					mono.Declared, mono.Inferred, poly.Inferred, mono.Total)
			}
			if poly.Inferred <= mono.Inferred {
				t.Errorf("no polymorphism gain: mono=%d poly=%d", mono.Inferred, poly.Inferred)
			}
		})
	}
}

// TestGeneratedCompilesWithCC compiles the smallest benchmark with the
// system C compiler when one is available, validating that the generator
// emits real C.
func TestGeneratedCompilesWithCC(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		if cc, err = exec.LookPath("gcc"); err != nil {
			t.Skip("no C compiler available")
		}
	}
	src := Generate(PaperSuite()[0])
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cc, "-std=c99", "-fsyntax-only", "-Wno-everything", path).CombinedOutput()
	if err != nil {
		// Retry without the clang-only flag.
		out, err = exec.Command(cc, "-std=c99", "-fsyntax-only", "-w", path).CombinedOutput()
	}
	if err != nil {
		t.Errorf("cc rejected generated program: %v\n%s", err, out)
	}
}

func TestDefaultsApplied(t *testing.T) {
	src := Generate(Config{Name: "tiny", TargetLines: 200, Seed: 5})
	if !strings.Contains(src, "int main") {
		t.Error("no main generated")
	}
	if _, err := cfront.Parse("tiny.c", src); err != nil {
		t.Errorf("tiny config does not parse: %v", err)
	}
}

// TestPrintAnalyzeRoundTrip: printing a parsed benchmark and reparsing
// the output must preserve the analysis results exactly — a semantic
// round-trip through the C printer.
func TestPrintAnalyzeRoundTrip(t *testing.T) {
	src := Generate(PaperSuite()[0])
	f1, err := cfront.Parse("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	printed := cfront.PrintFile(f1)
	f2, err := cfront.Parse("b.c", printed)
	if err != nil {
		t.Fatalf("printed benchmark does not reparse: %v", err)
	}
	for _, opts := range []constinfer.Options{{}, {Poly: true}} {
		r1, err := constinfer.Analyze([]*cfront.File{f1}, opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := constinfer.Analyze([]*cfront.File{f2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Declared != r2.Declared || r1.Inferred != r2.Inferred || r1.Total != r2.Total {
			t.Errorf("opts %+v: analysis changed across print round trip: %d/%d/%d vs %d/%d/%d",
				opts, r1.Declared, r1.Inferred, r1.Total, r2.Declared, r2.Inferred, r2.Total)
		}
	}
}
