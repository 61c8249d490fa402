package constinfer

import (
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
)

// parseCorpus parses the bench's parallel corpus of about lines lines.
func parseCorpus(tb testing.TB, lines int, seed int64) []*cfront.File {
	tb.Helper()
	f, err := cfront.Parse("synth.c", benchgen.Generate(benchgen.ParallelCorpus(lines, seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return []*cfront.File{f}
}

// BenchmarkCPrepare is the Build stage alone over the parsed
// c-synth-100k program (seed 11): collecting the functions, translating
// global and library signatures, and the FDG and its components. Run
// it with -benchmem.
func BenchmarkCPrepare(b *testing.B) {
	files := parseCorpus(b, 100_000, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalysis(files, Options{})
		a.Prepare()
		if len(a.sccs) == 0 {
			b.Fatal("no components")
		}
	}
}

// TestPrepareAllocs pins how many objects the Build stage allocates
// over a ~2k-line generated program at the count measured with the
// function records, the components and their members in arrays and
// the call edges in one CSR (95, against 949 with an object per
// function and per component) plus 10%, so a change that allocates per
// function or per component again fails it.
func TestPrepareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the compiler allocates")
	}
	const measured = 95
	files := parseCorpus(t, 2_000, 11)
	allocs := testing.AllocsPerRun(5, func() {
		NewAnalysis(files, Options{}).Prepare()
	})
	if allocs > measured*1.1 {
		t.Errorf("preparing %d declarations made %v allocations, want at most %v",
			len(files[0].Decls), allocs, measured*1.1)
	}
}
