package main

// Result files and their comparison. A result file holds, per workload,
// every metric's rounds with median, quartiles and extremes, and the
// environment that produced them; -compare judges one file against
// another with BENCHMARK.json's bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// environment is what two result files must share to be compared.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Rounds     int    `json:"rounds"`
}

func currentEnv(seed int64, seconds int) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Rounds:     rounds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			env.Commit = rev
			if modified == "true" {
				env.Commit += "+modified"
			}
		}
	}
	return env
}

type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
	// ByKind is the client-side p50 per daemon request kind (hit, miss_c,
	// miss_go, session), from the untraced runs.
	ByKind map[string]*series `json:"by_kind,omitempty"`
}

// series is one metric over the rounds.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
	Values []float64 `json:"values"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	s.Min, s.Max = slices.Min(s.Values), slices.Max(s.Values)
	s.Spread = 0
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
}

func (wr *workloadResult) add(res *outcome, detail map[string]any, traced bool) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Correct = wr.Correct && res.Correct
	into := wr.EndToEnd
	if traced {
		into = wr.PerLayer
	}
	for name, v := range res.Metrics {
		if into[name] == nil {
			into[name] = &series{Unit: v.Unit}
		}
		into[name].add(v.Value)
	}
	byKind, _ := detail["by_kind"].(map[string]any)
	for kind, d := range byKind {
		p50, _ := d.(map[string]any)["ms_p50"].(float64)
		if wr.ByKind[kind] == nil {
			wr.ByKind[kind] = &series{Unit: "ms"}
		}
		wr.ByKind[kind].add(p50)
	}
}

// contract is the part of BENCHMARK.json this program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// compareFiles prints one row per workload × end-to-end metric and flags
// per-layer metrics that left the old file's range. A median worse than
// its bound is a regression; a spread wider than the bound is unresolved
// unless every new round beats every old one. The exit status is 0 only
// when every row is within its bound.
func compareFiles(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	var spec contract
	var old, cur resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	a, b := old.Env, cur.Env
	if a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion || a.Seed != b.Seed {
		fmt.Fprintf(stderr, "bench: refusing to compare across environments: num_cpus %d/%d, gomaxprocs %d/%d, go %s/%s, seed %d/%d\n",
			a.NumCPU, b.NumCPU, a.GOMAXPROCS, b.GOMAXPROCS, a.GoVersion, b.GoVersion, a.Seed, b.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "old %s  new %s  (%s, %d CPUs, seed %d)\n", a.Commit, b.Commit, a.GoVersion, a.NumCPU, a.Seed)
	fmt.Fprintf(stdout, "%-14s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	code := 0
	for _, wl := range spec.Workloads {
		ow, nw := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if ow == nil || nw == nil {
			fmt.Fprintf(stdout, "%-14s missing from one file\n", wl.Name)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if ov == nil || nv == nil {
				fmt.Fprintf(stdout, "%-14s %-16s missing\n", wl.Name, m.Name)
				code = 1
				continue
			}
			verdict := judge(ov, nv, m.Better, m.Bound)
			if verdict != "ok" && verdict != "better" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-16s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n", wl.Name, m.Name,
				ov.Median, nv.Median, 100*(nv.Median/ov.Median-1), 100*math.Max(ov.Spread, nv.Spread), 100*m.Bound, verdict)
		}
		var moved []string
		for _, m := range spec.PerLayer {
			ov, nv := ow.PerLayer[m.Name], nw.PerLayer[m.Name]
			if ov != nil && nv != nil && (nv.Median < ov.Min || nv.Median > ov.Max) {
				moved = append(moved, fmt.Sprintf("%s %.4g→%.4g", m.Name, ov.Median, nv.Median))
			}
		}
		sort.Strings(moved)
		if len(moved) > 0 {
			fmt.Fprintf(stdout, "%-14s layers outside the old range: %s\n", wl.Name, strings.Join(moved, "; "))
		}
	}
	return code
}

// judge compares one metric's rounds under its bound.
func judge(old, cur *series, better string, bound float64) string {
	worse := func(x, y float64) bool { // x worse than y
		if better == "higher" {
			return x < y
		}
		return x > y
	}
	if math.Max(old.Spread, cur.Spread) > bound {
		allBetter := true
		for _, n := range cur.Values {
			for _, o := range old.Values {
				if !worse(o, n) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	limit := old.Median * (1 + bound)
	if better == "higher" {
		limit = old.Median * (1 - bound)
	}
	if worse(cur.Median, limit) {
		return "REGRESSION"
	}
	return "ok"
}
