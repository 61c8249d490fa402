// Command paperbench regenerates the evaluation of Section 4.4 of "A
// Theory of Type Qualifiers" (PLDI 1999): Table 1 (benchmarks), Table 2
// (compile/mono/poly times and const counts) and Figure 6 (stacked
// percentage chart), over the synthetic benchmark suite.
//
// Usage:
//
//	paperbench [-table1] [-table2] [-figure6] [-simplify] [-polyrec] [-out FILE]
//
// With no selection flags, everything is printed. -out additionally
// writes the Table 2 rows (one record per benchmark, with its generated
// size) as JSON, together with the options used and the suite's
// allocation footprint (runtime.ReadMemStats deltas).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/constinfer"
	"repro/internal/experiment"
)

// memJSON is the suite run's allocation footprint: how much it
// allocated in total (cumulative, survives GC) and where the live heap
// stood when it finished.
type memJSON struct {
	AllocBytes     uint64 `json:"alloc_bytes"`
	Mallocs        uint64 `json:"mallocs"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
}

// measureMem runs fn between two runtime.ReadMemStats snapshots.
// TotalAlloc/Mallocs are monotonic, so their deltas attribute
// allocation to fn even when the GC runs mid-measurement.
func measureMem(fn func()) memJSON {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return memJSON{
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		Mallocs:        after.Mallocs - before.Mallocs,
		HeapInuseBytes: after.HeapInuse,
	}
}

// benchJSON is the -out schema: one record per benchmark, mirroring the
// Table 2 columns plus the generated size.
type benchJSON struct {
	Name          string  `json:"name"`
	Lines         int     `json:"lines"`
	CompileTimeMS float64 `json:"compile_time_ms"`
	MonoTimeMS    float64 `json:"mono_time_ms"`
	PolyTimeMS    float64 `json:"poly_time_ms"`
	Declared      int     `json:"declared_const"`
	Mono          int     `json:"mono_const"`
	Poly          int     `json:"poly_const"`
	Total         int     `json:"total_positions"`
}

type benchFile struct {
	Options struct {
		Simplify bool `json:"simplify"`
		PolyRec  bool `json:"polyrec"`
	} `json:"options"`
	Benchmarks  []benchJSON `json:"benchmarks"`
	SuiteMemory *memJSON    `json:"suite_memory,omitempty"`
}

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 only")
	table2 := flag.Bool("table2", false, "print Table 2 only")
	figure6 := flag.Bool("figure6", false, "print Figure 6 only")
	simplify := flag.Bool("simplify", true, "scheme simplification in the polymorphic pass (the Section 6 optimization; disable with -simplify=false)")
	polyrec := flag.Bool("polyrec", false, "enable polymorphic recursion in the polymorphic pass")
	out := flag.String("out", "", "also write the Table 2 rows as JSON to this file")
	flag.Parse()

	opts := constinfer.Options{Simplify: *simplify, PolyRec: *polyrec}
	var results []*experiment.Result
	var err error
	suiteMem := measureMem(func() { results, err = experiment.RunSuite(opts) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}

	all := !*table1 && !*table2 && !*figure6
	if all || *table1 {
		fmt.Println(experiment.Table1(results))
	}
	if all || *table2 {
		fmt.Println(experiment.Table2(results))
	}
	if all || *figure6 {
		fmt.Println(experiment.Figure6(results))
	}

	var f benchFile
	f.Options.Simplify = opts.Simplify
	f.Options.PolyRec = opts.PolyRec
	f.SuiteMemory = &suiteMem
	for _, r := range results {
		f.Benchmarks = append(f.Benchmarks, benchJSON{
			Name:          r.Config.Name,
			Lines:         r.Lines,
			CompileTimeMS: r.CompileTime.Seconds() * 1000,
			MonoTimeMS:    r.MonoTime.Seconds() * 1000,
			PolyTimeMS:    r.PolyTime.Seconds() * 1000,
			Declared:      r.Declared,
			Mono:          r.Mono,
			Poly:          r.Poly,
			Total:         r.Total,
		})
	}

	if *out != "" {
		if err := writeJSON(*out, f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}
}

func writeJSON(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
