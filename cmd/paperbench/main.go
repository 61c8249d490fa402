// Command paperbench regenerates the evaluation of Section 4.4 of "A
// Theory of Type Qualifiers" (PLDI 1999): Table 1 (benchmarks), Table 2
// (compile/mono/poly times and const counts) and Figure 6 (stacked
// percentage chart), over the synthetic benchmark suite.
//
// Usage:
//
//	paperbench [-table1] [-table2] [-figure6] [-simplify] [-polyrec]
//	           [-go-self PATTERN] [-go-self-rounds n]
//	           [-new-analyses]
//	           [-obs] [-obs-requests n] [-obs-rounds n] [-out FILE]
//
// With no selection flags, everything is printed. -out additionally
// writes the per-benchmark measurements as machine-readable JSON (the
// repository tracks them as BENCH_N.json files, one per perf-relevant
// change, so the trajectory accumulates). Every measurement block also
// records its allocation footprint (runtime.ReadMemStats deltas), so
// memory regressions show up in the same trajectory as time ones.
//
// -obs measures what cquald's always-on flight recorder costs a
// warm-path (cache-hit) request: two in-process servers, recording on
// vs off, same repeated request, median latencies and their ratio (see
// experiment.MeasureObs). The acceptance bound is overhead ≤ 5%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/constinfer"
	"repro/internal/driver"
	"repro/internal/experiment"

	// The -new-analyses Go corpus goes through the Go front end.
	_ "repro/internal/gofront"
)

// memJSON is one block's allocation footprint: how much the block's
// measurement allocated in total (cumulative, survives GC) and where
// the live heap stood when it finished.
type memJSON struct {
	AllocBytes     uint64 `json:"alloc_bytes"`
	Mallocs        uint64 `json:"mallocs"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
}

// measureMem runs fn between two runtime.ReadMemStats snapshots.
// TotalAlloc/Mallocs are monotonic, so their deltas attribute
// allocation to the block even when the GC runs mid-measurement.
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

// goSelfJSON is the Go self-analysis block of the -out schema: the Go
// front end analyzing this repository's own packages.
type goSelfJSON struct {
	Pattern     string  `json:"pattern"`
	Files       int     `json:"files"`
	Functions   int     `json:"functions"`
	Total       int     `json:"total_positions"`
	Inferred    int     `json:"inferred_const"`
	NotConst    int     `json:"not_const"`
	Constraints int     `json:"constraints"`
	Vars        int     `json:"vars"`
	FrontEndMS  float64 `json:"frontend_ms"`
	ConstrainMS float64 `json:"constrain_ms"`
	SolveMS     float64 `json:"solve_ms"`
	TotalMS     float64 `json:"total_ms"`
	Memory      memJSON `json:"memory"`
}

// newAnalysisJSON is one -new-analyses measurement: an expansion-pack
// analysis (or the combined four-analysis pass) over its seeded example
// corpus, with the planted-conflict count and the shared-solver stats.
type newAnalysisJSON struct {
	Name        string   `json:"name"`
	Lang        string   `json:"lang"`
	Analyses    []string `json:"analyses"`
	Conflicts   int      `json:"conflicts"`
	Vars        int      `json:"vars"`
	Constraints int      `json:"constraints"`
	MaskClasses int      `json:"mask_classes"`
	SolveMS     float64  `json:"solve_ms"`
	TotalMS     float64  `json:"total_ms"`
	Memory      memJSON  `json:"memory"`
}

// obsJSON is the -obs block of the -out schema: the flight recorder's
// warm-path overhead, measured by A/B-ing two in-process servers (see
// experiment.MeasureObs). Overhead is (on/off)-1; the acceptance bound
// for always-on recording is ≤ 0.05.
type obsJSON struct {
	Requests  int     `json:"requests"`
	Rounds    int     `json:"rounds"`
	WarmOnUS  float64 `json:"warm_on_us"`
	WarmOffUS float64 `json:"warm_off_us"`
	Overhead  float64 `json:"overhead"`
	Retained  int     `json:"retained_traces"`
	Events    int     `json:"journal_events"`
	Memory    memJSON `json:"memory"`
}

type benchFile struct {
	Options struct {
		Simplify bool `json:"simplify"`
		PolyRec  bool `json:"polyrec"`
	} `json:"options"`
	Benchmarks  []benchJSON       `json:"benchmarks"`
	SuiteMemory *memJSON          `json:"suite_memory,omitempty"`
	GoSelf      *goSelfJSON       `json:"go_self,omitempty"`
	NewAnalyses []newAnalysisJSON `json:"new_analyses,omitempty"`
	Obs         *obsJSON          `json:"obs,omitempty"`
}

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 only")
	table2 := flag.Bool("table2", false, "print Table 2 only")
	figure6 := flag.Bool("figure6", false, "print Figure 6 only")
	simplify := flag.Bool("simplify", true, "scheme simplification in the polymorphic pass (the Section 6 optimization; disable with -simplify=false)")
	polyrec := flag.Bool("polyrec", false, "enable polymorphic recursion in the polymorphic pass")
	goSelf := flag.String("go-self", "", "also run the Go front end over this package pattern (e.g. ./internal/...) and report the self-analysis block")
	goSelfRounds := flag.Int("go-self-rounds", 3, "Go self-analysis measurement rounds (median reported)")
	newAnalyses := flag.Bool("new-analyses", false, "also measure the expansion-pack analyses (unique, fdstate, and the combined four-analysis pass) over the seeded example corpora")
	newAnalysesRounds := flag.Int("new-analyses-rounds", 3, "expansion-pack measurement rounds (median reported)")
	obsBench := flag.Bool("obs", false, "also measure the flight recorder's warm-path overhead (always-on recording vs a disabled baseline)")
	obsRequests := flag.Int("obs-requests", 200, "warm-path requests timed per round in the -obs block")
	obsRounds := flag.Int("obs-rounds", 5, "rounds per arm in the -obs block (median of per-round medians reported)")
	out := flag.String("out", "", "also write the measurements as JSON to this file (e.g. BENCH_5.json)")
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

	if *goSelf != "" {
		var g *experiment.GoSelfResult
		mem := measureMem(func() { g, err = experiment.MeasureGoSelf(*goSelf, *goSelfRounds) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		f.GoSelf = &goSelfJSON{
			Pattern:     g.Pattern,
			Files:       g.Files,
			Functions:   g.Functions,
			Total:       g.Total,
			Inferred:    g.Inferred,
			NotConst:    g.NotConst,
			Constraints: g.Constraints,
			Vars:        g.Vars,
			FrontEndMS:  g.FrontEnd.Seconds() * 1000,
			ConstrainMS: g.Constrain.Seconds() * 1000,
			SolveMS:     g.Solve.Seconds() * 1000,
			TotalMS:     g.TotalTime.Seconds() * 1000,
			Memory:      mem,
		}
		fmt.Printf("Go self-analysis (%s): %d files, %d functions, %d positions (%d inferrable const, %d never const), %d constraints; front end %.1fms, constrain %.1fms, solve %.1fms (total %.1fms)\n",
			g.Pattern, g.Files, g.Functions, g.Total, g.Inferred, g.NotConst,
			g.Constraints, f.GoSelf.FrontEndMS, f.GoSelf.ConstrainMS,
			f.GoSelf.SolveMS, f.GoSelf.TotalMS)
	}

	if *newAnalyses {
		f.NewAnalyses, err = measureNewAnalyses(*newAnalysesRounds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		for _, r := range f.NewAnalyses {
			fmt.Printf("New analysis %s (%s): %d conflict(s), %d vars, %d constraints, %d mask class(es); solve %.3fms (total %.1fms)\n",
				r.Name, r.Lang, r.Conflicts, r.Vars, r.Constraints, r.MaskClasses, r.SolveMS, r.TotalMS)
		}
	}

	if *obsBench {
		var o experiment.ObsResult
		mem := measureMem(func() { o, err = experiment.MeasureObs(*obsRequests, *obsRounds) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		f.Obs = &obsJSON{
			Requests:  o.Requests,
			Rounds:    o.Rounds,
			WarmOnUS:  float64(o.WarmOn.Microseconds()),
			WarmOffUS: float64(o.WarmOff.Microseconds()),
			Overhead:  o.Overhead(),
			Retained:  o.Retained,
			Events:    o.Events,
			Memory:    mem,
		}
		fmt.Printf("Flight-recorder overhead (warm path, %d req × %d rounds/arm): on %.1fµs, off %.1fµs, overhead %+.2f%% (%d trace(s) resident, %d journal event(s))\n",
			o.Requests, o.Rounds, f.Obs.WarmOnUS, f.Obs.WarmOffUS, f.Obs.Overhead*100, o.Retained, o.Events)
	}

	if *out != "" {
		if err := writeJSON(*out, f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}
}

// measureNewAnalyses runs the expansion-pack corpora through the shared
// pipeline: each analysis alone over its seeded example, then const,
// taint, unique, and fdstate together in one constraint pass over the
// union of the C corpora. Timings are medians over rounds; counts come
// from the (deterministic) first run.
func measureNewAnalyses(rounds int) ([]newAnalysisJSON, error) {
	prelude := func(path string) (driver.PreludeFile, error) {
		data, err := os.ReadFile(path)
		return driver.PreludeFile{Path: path, Text: string(data)}, err
	}
	uq, err1 := prelude("examples/unique-c/unique.q")
	fq, err2 := prelude("examples/fdstate/fd.q")
	gq, err3 := prelude("examples/go-fdstate/fd.q")
	tq, err4 := prelude("examples/taint-c/taint.q")
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return nil, err
		}
	}

	taintC, err := filepath.Glob("examples/taint-c/*.c")
	if err != nil || len(taintC) == 0 {
		return nil, fmt.Errorf("taint corpus missing: %v (%d files)", err, len(taintC))
	}
	sort.Strings(taintC)

	runs := []struct {
		name string
		cfg  driver.Config
		srcs []driver.Source
	}{
		{"unique-c",
			driver.Config{Jobs: 1, Analyses: []string{"unique"}, Preludes: []driver.PreludeFile{uq}},
			driver.FileSources("examples/unique-c/registry.c")},
		{"fdstate-c",
			driver.Config{Jobs: 1, Analyses: []string{"fdstate"}, Preludes: []driver.PreludeFile{fq}},
			driver.FileSources("examples/fdstate/server.c")},
		{"go-fdstate",
			driver.Config{Jobs: 1, Lang: "go", Analyses: []string{"fdstate"}, Preludes: []driver.PreludeFile{gq}},
			driver.FileSources("./examples/go-fdstate/dirty")},
		{"combined-c",
			driver.Config{Jobs: 1, Analyses: []string{"const", "taint", "unique", "fdstate"},
				Preludes: []driver.PreludeFile{tq, uq, fq}},
			driver.FileSources(append(append([]string{}, taintC...),
				"examples/unique-c/registry.c", "examples/fdstate/server.c")...)},
	}

	var out []newAnalysisJSON
	for _, r := range runs {
		var solves, totals []time.Duration
		var first *driver.Result
		var runErr error
		mem := measureMem(func() {
			for i := 0; i < rounds; i++ {
				res, err := driver.Run(r.cfg, r.srcs)
				if err != nil {
					runErr = fmt.Errorf("%s: %v", r.name, err)
					return
				}
				if res.Report == nil {
					runErr = fmt.Errorf("%s: run failed: %v", r.name, res.Errors())
					return
				}
				if first == nil {
					first = res
				}
				solves = append(solves, res.Timings.Solve)
				totals = append(totals, res.Timings.Total())
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		conflicts := 0
		for _, d := range first.Diagnostics {
			if d.Code == "qualifier-conflict" {
				conflicts++
			}
		}
		lang := r.cfg.Lang
		if lang == "" {
			lang = "c"
		}
		out = append(out, newAnalysisJSON{
			Name:        r.name,
			Lang:        lang,
			Analyses:    r.cfg.AnalysisNames(),
			Conflicts:   conflicts,
			Vars:        first.Solver.Vars,
			Constraints: first.Solver.Constraints,
			MaskClasses: first.Solver.MaskClasses,
			SolveMS:     median(solves).Seconds() * 1000,
			TotalMS:     median(totals).Seconds() * 1000,
			Memory:      mem,
		})
	}
	return out, nil
}

// median returns the middle duration (lower middle for even counts).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

func writeJSON(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
