package cfront

import (
	"testing"

	"repro/internal/benchgen"
)

// BenchmarkCParse parses the bench's c-synth-100k program (seed 11), the
// front end's share of one c-synth-100k op. Run it with -benchmem: the
// allocation count is what the node slabs cut.
func BenchmarkCParse(b *testing.B) {
	src := benchgen.Generate(benchgen.ParallelCorpus(100_000, 11))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Parse("synth.c", src)
		if err != nil {
			b.Fatal(err)
		}
		benchFile = f
	}
}

// BenchmarkCLex lexes the same program to EOF, the floor under
// BenchmarkCParse.
func BenchmarkCLex(b *testing.B) {
	src := benchgen.Generate(benchgen.ParallelCorpus(100_000, 11))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLexer("synth.c", src)
		for {
			t, err := l.Next()
			if err != nil {
				b.Fatal(err)
			}
			if t.Kind == EOF {
				break
			}
		}
	}
}

var benchFile *File

// TestParseAllocs pins how many objects parsing a ~2k-line generated
// program allocates at the count measured with node and type slabs and
// scratch stacks (3,439) plus 10%, room for a toolchain's own
// allocations, so a change that puts back per-node or per-type
// allocation fails it.
func TestParseAllocs(t *testing.T) {
	const measured = 3439
	src := benchgen.Generate(benchgen.ParallelCorpus(2_000, 11))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse("synth.c", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > measured*1.1 {
		t.Errorf("parsing %d bytes made %v allocations, want at most %v", len(src), allocs, measured*1.1)
	}
}
