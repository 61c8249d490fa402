package cfront

import (
	"runtime"
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

// TestParseAllocs pins how many objects and bytes parsing a ~2k-line
// generated program allocates at the counts measured with node and type
// slabs, scratch stacks and 32-byte type records (3,456 objects,
// 390,324 bytes) plus 10%, room for a toolchain's own allocations, so a
// change that puts back per-node or per-type allocation, or widens the
// records the tree keeps, fails it.
func TestParseAllocs(t *testing.T) {
	const measured, measuredBytes = 3456, 390_324
	src := benchgen.Generate(benchgen.ParallelCorpus(2_000, 11))
	parse := func() {
		if _, err := Parse("synth.c", src); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, parse); allocs > measured*1.1 {
		t.Errorf("parsing %d bytes made %v allocations, want at most %v", len(src), allocs, measured*1.1)
	}
	if raceEnabled {
		return // the bytes bound holds for an uninstrumented build only
	}
	if bytes := bytesPerRun(5, parse); float64(bytes) > measuredBytes*1.1 {
		t.Errorf("parsing %d bytes allocated %d bytes, want at most %v", len(src), bytes, measuredBytes*1.1)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// bytes f allocates per call, over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
