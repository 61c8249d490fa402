package constinfer

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfront"
)

// FuzzAnalyze drives the whole C pipeline (parse, constrain, solve,
// classify) over arbitrary sources, seeded from the testdata corpus and
// the C examples. On every input that parses, mono and poly inference
// must not panic, the projected poly verdicts must equal those of the
// full-fragment reference (newReference), position by position, and on
// a program without conflicts every position mono may make const poly
// may too (compareModes).
func FuzzAnalyze(f *testing.F) {
	for _, pattern := range []string{"testdata/*.c", "../../examples/*/*.c"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cfront.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		files := []*cfront.File{file}
		mono, _ := Analyze(files, Options{})
		poly, _ := Analyze(files, Options{Poly: true})
		ref := analyzeReference(files, Options{Poly: true})
		if err := compareModes(mono, poly, ref); err != nil {
			t.Fatal(err)
		}
	})
}
