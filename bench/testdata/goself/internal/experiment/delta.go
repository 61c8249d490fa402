package experiment

// Delta re-solve measurement: how much of a cold solve a retained
// constraint.Session saves on a single-function-sized edit. The workload
// is the generated cycle-graph family the solver benchmarks use
// (benchgen.CycleSystem), partitioned into contiguous fragments that
// stand in for per-function constraint spans; each warm round renames
// one fragment's content key, which the session sees as that fragment
// removed and re-added — the shape of one edited function — and
// re-solves only the dirty region.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/benchgen"
	"repro/internal/constraint"
	"repro/internal/qual"
)

// DeltaResult is one warm-vs-cold measurement.
type DeltaResult struct {
	Vars        int           // variables in the generated system
	Constraints int           // constraints in the generated system
	Frags       int           // fragments the constraint list is split into
	ColdSolve   time.Duration // median cold solve over the rounds
	WarmResolve time.Duration // median warm re-solve after a one-fragment edit
	Hits        int           // warm rounds that took the delta path
	Fallbacks   int           // warm rounds that re-solved cold (excludes the first solve)
}

// WarmOverCold is the headline ratio; zero cold time yields zero.
func (r DeltaResult) WarmOverCold() float64 {
	if r.ColdSolve <= 0 {
		return 0
	}
	return r.WarmResolve.Seconds() / r.ColdSolve.Seconds()
}

// deltaSet is the two-component lattice of the solver benchmarks.
func deltaSet() *qual.Set {
	return qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "tainted", Sign: qual.Positive},
	)
}

// deltaConfig is the n-variable cycle-graph workload, matching the
// BenchmarkSolverScaling / BenchmarkRestrictScaling generator settings.
func deltaConfig(n int) benchgen.CycleConfig {
	return benchgen.CycleConfig{
		Vars:       n,
		CycleFrac:  0.5,
		CycleLen:   8,
		CrossEdges: n / 4,
		MaskedFrac: 0.2,
		Seed:       int64(n),
	}
}

// deltaWorkload fixes the measured system: its constraint list, variable
// count, and the fragment partition.
type deltaWorkload struct {
	set      *qual.Set
	cons     []constraint.Constraint
	nv       int
	bounds   []int // fragment i covers cons[bounds[i]:bounds[i+1]]
	editFrag int   // the fragment the warm rounds re-key
}

// newDeltaWorkload generates the system and splits it into fragments of
// roughly fragSize constraints.
func newDeltaWorkload(n, fragSize int) *deltaWorkload {
	set := deltaSet()
	sys, _ := benchgen.CycleSystem(set, deltaConfig(n))
	cons := sys.Constraints()
	w := &deltaWorkload{set: set, cons: cons, nv: sys.NumVars()}
	for at := 0; at < len(cons); at += fragSize {
		w.bounds = append(w.bounds, at)
	}
	w.bounds = append(w.bounds, len(cons))
	w.editFrag = (len(w.bounds) - 1) / 2
	return w
}

// build replays the workload into a fresh system. ver > 0 renames the
// edit fragment's key, which a retained session must treat as that
// fragment removed and re-added.
func (w *deltaWorkload) build(ver int) (*constraint.System, []constraint.FragmentSpan) {
	sys := constraint.NewSystem(w.set)
	for i := 0; i < w.nv; i++ {
		sys.Fresh()
	}
	var spans []constraint.FragmentSpan
	for i := 0; i+1 < len(w.bounds); i++ {
		start := sys.NumConstraints()
		for _, c := range w.cons[w.bounds[i]:w.bounds[i+1]] {
			sys.AddMasked(c.L, c.R, c.Mask, c.Why)
		}
		key := fmt.Sprintf("frag:%d", i)
		if i == w.editFrag && ver > 0 {
			key = fmt.Sprintf("frag:%d@%d", i, ver)
		}
		spans = append(spans, constraint.FragmentSpan{Key: key, Start: start, End: sys.NumConstraints()})
	}
	return sys, spans
}

// MeasureDelta times cold solves against warm session re-solves of the
// n-variable workload over the given number of rounds, reporting the
// medians. Each warm round presents a freshly built system with the edit
// fragment re-keyed; system construction happens outside the timed
// region on both sides, so the ratio compares solve work only.
func MeasureDelta(n, rounds int) DeltaResult {
	if rounds < 1 {
		rounds = 1
	}
	w := newDeltaWorkload(n, 64)
	res := DeltaResult{Vars: w.nv, Constraints: len(w.cons), Frags: len(w.bounds) - 1}

	cold := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		sys, _ := w.build(0)
		start := time.Now()
		if errs := sys.Solve(); errs != nil {
			panic("experiment: delta workload is unsatisfiable")
		}
		cold = append(cold, time.Since(start))
	}

	ss := constraint.NewSession(w.set)
	sys, spans := w.build(0)
	ss.Solve(sys, spans) // first solve is the retained baseline, not a measurement
	warm := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		sys, spans := w.build(r + 1)
		start := time.Now()
		if errs := ss.Solve(sys, spans); errs != nil {
			panic("experiment: delta workload is unsatisfiable")
		}
		warm = append(warm, time.Since(start))
		if d := ss.Delta(); d.Applied {
			res.Hits++
		} else {
			res.Fallbacks++
		}
	}

	res.ColdSolve = median(cold)
	res.WarmResolve = median(warm)
	return res
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
