// Command bench is the repository's benchmark: four fixed workloads over
// the C front end, the Go front end and the cquald daemon, every answer
// checked against a known one, reported as end-to-end metrics — or, with
// --trace 1, as per-layer metrics from a separately traced run. README.md
// in this directory documents the workloads, metrics, bounds and the
// layer-to-metric map; BENCHMARK.json at the repository root is the
// contract. Run it from the repository root through run.sh, which builds
// it:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	bench -seed 11 -out FILE    every workload, 5 rounds, traced and not
//	bench -compare OLD.json NEW.json
//
// One run prints its metrics as the last line of standard output, a JSON
// object {"correct", "attempted", "failed", "metrics"}, and exits 1 when
// any answer was wrong.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json holds the same
// lists with each metric's direction and regression bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p90", "ms"},
	{"ops_per_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"request.decode.ms", "ms"},
	{"cache.key.ms", "ms"},
	{"cache.lookup.ms", "ms"},
	{"cache.store.ms", "ms"},
	{"cache.result.hit_ratio", "ratio"},
	{"cache.summary.hit_ratio", "ratio"},
	{"load.ms", "ms"},
	{"lex.ms", "ms"},
	{"lex.tokens", "count"},
	{"parse.ms", "ms"},
	{"parse.syntax.ms", "ms"},
	{"parse.alloc_mb", "MB"},
	{"parse.klines_per_s", "klines/s"},
	{"parse.files", "count"},
	{"build.ms", "ms"},
	{"constrain.ms", "ms"},
	{"constrain.alloc_mb", "MB"},
	{"constraints", "count"},
	{"solve.ms", "ms"},
	{"solve.alloc_mb", "MB"},
	{"vars", "count"},
	{"delta.applied_ratio", "ratio"},
	{"delta.dirty_vars", "count"},
	{"classify.ms", "ms"},
	{"report.ms", "ms"},
	{"encode.ms", "ms"},
	{"functions", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

const (
	// setupRounds is how often a run sets its workload up; setup_s is
	// the median, and only the last set-up is measured.
	setupRounds = 3
	// minOps is the fewest ops (per client) a run measures, however slow.
	minOps = 3
	// rounds is how often a result file runs each workload, untraced and
	// traced each.
	rounds = 5
)

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(child(mode, os.Args[1:]))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func child(mode string, args []string) int {
	switch mode {
	case "batch":
		return childBatch(args, os.Stdout, os.Stderr)
	case "serve":
		return childServe(os.Stdin, os.Stdout, os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "bench: unknown child mode %q\n", mode)
	return 2
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (empty: every workload, 5 rounds)")
	seed := fs.Int64("seed", 11, "input seed")
	seconds := fs.Int("seconds", 15, "measured window of one run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", "", "without -workload: write the result file here")
	compare := fs.Bool("compare", false, "compare two result files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD.json NEW.json")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds a positive count")
		return 2
	}
	work := os.Getenv("BENCH_WORK")
	if work == "" {
		work = filepath.Join(os.TempDir(), "bench-work")
	}
	if *name == "" {
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale, work: work}
	res, detail, err := runOnce(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	return printOutcome(res, detail, stdout)
}

// printOutcome prints a run's detail line, if any, and its result line,
// last; the exit status is 1 when any answer was wrong.
func printOutcome(res *outcome, detail map[string]any, stdout io.Writer) int {
	if detail != nil {
		line, _ := json.Marshal(map[string]any{"detail": detail})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	line, _ := json.Marshal(res) // numbers and strings only
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// options describe one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sc       scale
	work     string // generated inputs, logs and traces go under it
}

// outcome is the contract's result line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is what a run observed.
type measured struct {
	attempted, failed int
	errs              []string
	latencies         []float64            // ms, successful ops
	byKind            map[string][]float64 // ms per request kind (daemon workloads)
	metrics           map[string]float64
}

func (m *measured) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// stage is a set-up workload ready to measure.
type stage interface {
	measure(window time.Duration) (*measured, error)
	close()
}

// runOnce runs one workload once: set up setupRounds times and measure
// the last set-up (or, traced, replay it in process) for the window.
func runOnce(o options, log io.Writer) (*outcome, map[string]any, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, nil, fmt.Errorf("unknown workload (have %s)", strings.Join(names, ", "))
	}
	sc := o.sc
	if sc.cap == 0 {
		sc.cap = w.cap
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	window := time.Duration(o.seconds) * time.Second

	if o.trace {
		in, err := w.inputs(o.seed, sc, dir)
		if err != nil {
			return nil, nil, err
		}
		traces := filepath.Join(o.work, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return nil, nil, err
		}
		file := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		m, err := traceRun(w, in, window, file)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(log, "bench: %s: Chrome trace in %s\n", w.name, file)
		return finish(w.name, m, perLayer, log), nil, nil
	}

	var setups []float64
	var st stage
	for range setupRounds {
		if st != nil {
			st.close()
		}
		start := time.Now()
		in, err := w.inputs(o.seed, sc, dir)
		if err == nil {
			if w.batch {
				st, err = setupBatch(in, sc.cap)
			} else {
				st, err = setupDaemon(in, dir)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %v", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	m, err := st.measure(window)
	if err != nil {
		return nil, nil, err
	}
	if m.metrics == nil {
		m.metrics = map[string]float64{}
	}
	m.metrics["setup_s"] = median(setups)
	if len(m.latencies) > 0 {
		m.metrics["verdict_ms_p50"] = percentile(m.latencies, 0.5)
		m.metrics["verdict_ms_p90"] = percentile(m.latencies, 0.9)
	}
	detail := map[string]any{"samples": len(m.latencies)}
	if len(m.byKind) > 0 {
		byKind := map[string]any{}
		for k, xs := range m.byKind {
			byKind[k] = map[string]any{"ms_p50": percentile(xs, 0.5), "samples": len(xs)}
		}
		detail["by_kind"] = byKind
	}
	return finish(w.name, m, endToEnd, log), detail, nil
}

// finish renders what a run measured as the result line, every metric of
// the list present, and logs a summary.
func finish(name string, m *measured, defs []metricDef, log io.Writer) *outcome {
	res := &outcome{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]value{},
	}
	fmt.Fprintf(log, "bench: %s: %d attempted, %d failed\n", name, m.attempted, m.failed)
	for _, e := range m.errs {
		fmt.Fprintf(log, "bench:   failure: %s\n", e)
	}
	for _, d := range defs {
		res.Metrics[d.name] = value{m.metrics[d.name], d.unit}
		fmt.Fprintf(log, "bench:   %-24s %12.4f %s\n", d.name, m.metrics[d.name], d.unit)
	}
	return res
}

// runAll runs every workload rounds times, untraced and traced, each run
// a child process exactly as the contract's command line starts it, and
// aggregates the rounds. A round runs every workload once, so each
// workload's rounds are spread over the whole file's run rather than
// bunched into a few minutes of the host's drifting speed.
func runAll(seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rf := &resultFile{Env: currentEnv(seed, seconds), Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		rf.Workloads[w.name] = &workloadResult{Correct: true, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}, ByKind: map[string]*series{}}
	}
	code := 0
	for r := range rounds {
		for _, w := range workloads {
			wr := rf.Workloads[w.name]
			for _, trace := range []int{0, 1} {
				fmt.Fprintf(stderr, "bench: %s round %d/%d trace %d\n", w.name, r+1, rounds, trace)
				res, detail, err := runChild(self, w.name, seed, seconds, trace, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					wr.Correct = false
					code = 1
					continue
				}
				wr.add(res, detail, trace == 1)
				if !res.Correct {
					code = 1
				}
			}
		}
	}
	printResults(rf, stdout)
	if out != "" {
		data, _ := json.MarshalIndent(rf, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

// runChild runs one workload as the contract's command line does and
// parses its result and detail lines; its log goes to stderr.
func runChild(self, name string, seed int64, seconds, trace int, stderr io.Writer) (*outcome, map[string]any, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var res *outcome
	var detail map[string]any
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line map[string]json.RawMessage
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		if d, ok := line["detail"]; ok {
			json.Unmarshal(d, &detail)
			continue
		}
		res = new(outcome)
		if err := json.Unmarshal(sc.Bytes(), res); err != nil {
			return nil, nil, err
		}
	}
	if res == nil {
		return nil, nil, fmt.Errorf("no result line (%v)", runErr)
	}
	return res, detail, nil
}

func printResults(rf *resultFile, w io.Writer) {
	for _, wl := range workloads {
		wr := rf.Workloads[wl.name]
		fmt.Fprintf(w, "%s: correct=%t attempted=%d failed=%d\n", wl.name, wr.Correct, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.name]; s != nil {
				fmt.Fprintf(w, "  %-24s %12.4f %-6s spread %5.1f%%  [%.4f .. %.4f]\n",
					d.name, s.Median, d.unit, 100*s.Spread, s.Min, s.Max)
			}
		}
	}
}
