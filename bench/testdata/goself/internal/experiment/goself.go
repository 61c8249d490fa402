package experiment

// The Go front end's flagship measurement: const inference over this
// repository's own packages — the checker checking itself. The numbers
// land in the go_self block of the BENCH_N.json trajectory next to the
// paper-suite rows.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/constinfer"
	"repro/internal/driver"
	_ "repro/internal/gofront" // registers the "go" front end
)

// GoSelfResult is one self-analysis measurement: corpus size, verdict
// counters, solver load, and the per-stage wall clock (median over the
// measurement rounds).
type GoSelfResult struct {
	Pattern     string
	Files       int
	Functions   int
	Total       int // interesting positions
	Inferred    int // may-const (Go declares none, so all are inference)
	NotConst    int
	Constraints int
	Vars        int
	// FrontEnd covers load, parse, and type check; Constrain and Solve
	// are the shared engine stages; TotalTime is the whole pipeline.
	FrontEnd  time.Duration
	Constrain time.Duration
	Solve     time.Duration
	TotalTime time.Duration
}

// MeasureGoSelf analyzes the packages a go-tool-style pattern names
// with the Go front end, rounds times, and reports the run with the
// median total time.
func MeasureGoSelf(pattern string, rounds int) (*GoSelfResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	type sample struct {
		res   *driver.Result
		total time.Duration
	}
	samples := make([]sample, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		res, err := driver.Run(driver.Config{Lang: "go"}, []driver.Source{{Path: pattern}})
		if err != nil {
			return nil, err
		}
		if res.Report == nil {
			return nil, fmt.Errorf("experiment: go self-analysis of %s failed: %v", pattern, res.Errors())
		}
		samples = append(samples, sample{res: res, total: time.Since(start)})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].total < samples[j].total })
	med := samples[len(samples)/2]
	rep := med.res.Report

	notConst := 0
	for _, p := range rep.Positions {
		if p.Verdict == constinfer.MustNotConst {
			notConst++
		}
	}
	return &GoSelfResult{
		Pattern:     pattern,
		Files:       len(med.res.Program.FileNames()),
		Functions:   rep.Functions,
		Total:       rep.Total,
		Inferred:    rep.Inferred,
		NotConst:    notConst,
		Constraints: rep.Constraints,
		Vars:        rep.Vars,
		FrontEnd:    med.res.Timings.Load + med.res.Timings.Parse,
		Constrain:   med.res.Timings.Build + med.res.Timings.Constrain,
		Solve:       med.res.Timings.Solve,
		TotalTime:   med.total,
	}, nil
}
