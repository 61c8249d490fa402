package experiment

// The parallel-solve benchmark: one large benchgen corpus (the
// headline run uses a million lines) pushed through the front end
// once, then cold-solved repeatedly at increasing solver worker
// counts. Re-solving the same System is exactly the cold fixpoint
// computation — Solve never caches results — so the curve isolates
// the solver's scaling from front-end time.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/benchgen"
	"repro/internal/constraint"
	"repro/internal/driver"
)

// ParallelPoint is one measured worker count.
type ParallelPoint struct {
	Jobs  int
	Solve time.Duration // median over rounds
	Stats constraint.SolveStats
}

// ParallelResult is the parallel-solve benchmark block. NumCPU records
// the measuring machine's usable cores: worker counts beyond it
// oversubscribe the scheduler and cannot speed anything up, so a flat
// curve with NumCPU=1 documents the machine, not the solver.
type ParallelResult struct {
	Lines       int // generated corpus size
	Vars        int
	Constraints int
	MaskClasses int
	Rounds      int
	NumCPU      int
	Points      []ParallelPoint
}

// Speedup reports a point's solve-time speedup against the slowest
// measured point (the jobs=1 baseline when present).
func (r ParallelResult) Speedup(p ParallelPoint) float64 {
	base := time.Duration(0)
	for _, q := range r.Points {
		if q.Jobs == 1 {
			base = q.Solve
		}
	}
	if base == 0 || p.Solve == 0 {
		return 0
	}
	return base.Seconds() / p.Solve.Seconds()
}

// MeasureParallel generates a benchgen.ParallelCorpus of about `lines`
// lines, runs it through the C front end once, and measures the cold
// solve of the resulting constraint system at each worker count in
// jobsList (median over rounds). Conflict counts are checked across
// points — any divergence between worker counts is a solver bug and
// fails the measurement.
func MeasureParallel(lines int, seed int64, rounds int, jobsList []int) (ParallelResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	cfg := benchgen.ParallelCorpus(lines, seed)
	src := benchgen.Generate(cfg)
	res, err := driver.Run(driver.Config{SolveJobs: 1},
		[]driver.Source{driver.TextSource(cfg.Name+".c", src)})
	if err != nil {
		return ParallelResult{}, err
	}
	if res.HasErrors() || res.Analysis == nil {
		return ParallelResult{}, fmt.Errorf("experiment: parallel corpus does not analyze cleanly: %v", res.Errors())
	}
	a := res.Analysis
	out := ParallelResult{
		Lines:       res.Solver.Constraints, // placeholder, fixed below
		Vars:        res.Solver.Vars,
		Constraints: res.Solver.Constraints,
		MaskClasses: res.Solver.MaskClasses,
		Rounds:      rounds,
		NumCPU:      runtime.NumCPU(),
	}
	out.Lines = countLines(src)

	wantConflicts := -1
	for _, jobs := range jobsList {
		a.SetSolveJobs(jobs)
		// One untimed solve grows this setting's scratch, then a GC
		// settles the heap so earlier points don't bill collection debt
		// to later ones.
		a.SolveSystem()
		runtime.GC()
		var times []time.Duration
		var conflicts int
		for r := 0; r < rounds; r++ {
			start := time.Now()
			unsats := a.SolveSystem()
			times = append(times, time.Since(start))
			conflicts = len(unsats)
		}
		if wantConflicts == -1 {
			wantConflicts = conflicts
		} else if conflicts != wantConflicts {
			return ParallelResult{}, fmt.Errorf("experiment: solve at jobs=%d found %d conflicts, jobs=%d found %d — solver output diverged",
				jobs, conflicts, jobsList[0], wantConflicts)
		}
		out.Points = append(out.Points, ParallelPoint{
			Jobs:  jobs,
			Solve: median(times),
			Stats: a.SolveStats(),
		})
	}
	return out, nil
}

func countLines(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
		}
	}
	return n
}
