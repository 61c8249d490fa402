// Command cqual runs the qualifier-inference systems of "A Theory of
// Type Qualifiers" (PLDI 1999) over one or more C files analyzed as a
// single program. The default analysis is the Section 4 const
// inference; -analysis selects others from the registry (see
// -analyses), and several analyses named together run in one constraint
// pass over a shared product lattice.
//
// Usage:
//
//	cqual [-analysis LIST] [-prelude FILES] [-poly [-schemes]] [-v] [-json] [-stats] [-serve URL] file.c ...
//	cqual [-lang c|go] [-analysis LIST] [-prelude FILES] [-poly] [-json] ... -watch DIR
//	cqual -analyses
//
// For every "interesting" position (each pointer level of the parameters
// and results of defined functions) cqual reports whether it must be
// const, must not be const, or could be either; positions in the last two
// classes that are not yet declared const are the consts the programmer
// could add. Qualifier conflicts (writes through declared-const
// references, tainted data reaching an untainted sink) are reported with
// their step-by-step flow path and make the exit status nonzero. All
// input files are parsed before exiting, so every parse error is
// reported, not just the first.
//
// Analyses whose seeds and sinks live in library functions (taint) take
// a prelude file via -prelude, e.g.
//
//	analysis taint
//	getenv(_) -> tainted
//	printf(untainted, ...)
//
// With -trace FILE the run additionally records a hierarchical span
// trace of every pipeline stage — per-function constraint generation,
// per-mask-class solver sweeps — as Chrome trace-event JSON, viewable in
// chrome://tracing or Perfetto. The trace is deterministic: the same
// sources produce the same span sequence on every run.
//
// With -serve URL the files are not analyzed locally: they are POSTed to
// a running cquald daemon at URL and the daemon's JSON report — which is
// byte-identical to what -json would print here — goes to stdout. Exit
// status matches -json: 1 on qualifier conflicts, 2 on front-end or
// transport failure. Adding -json splices the daemon's X-Trace-Id into
// the report as a leading "trace_id" member (the daemon's flight
// recorder retains failing runs' traces at /v1/traces/<id>); without
// -json the report stays byte-verbatim and a failing run prints the
// trace URL as a stderr footer instead.
//
// With -watch, the one argument is a directory: cqual walks it
// recursively for the front end's source files (.c by default, .go with
// -lang go; mtime/size polling every 500 ms) and, whenever one appears,
// changes or disappears, runs over the whole tree what a one-shot cqual
// with the same flags runs, printing its output under a "watch: run N:
// K file(s)" header and logging one event=watch_run record on stderr.
// SIGINT or SIGTERM ends the watch with a poll/re-analysis summary and
// exit status 0. -watch cannot be combined with -serve.
//
// With -lint the run reports vet-style findings instead of the
// experiment summary: one "file:line:col: analysis: message" line per
// diagnostic (-json switches to a findings array with stable rule
// ids). -baseline FILE suppresses the findings recorded in a committed
// baseline — itself just an earlier `-lint -json` output — so CI can
// gate on *new* findings only (the repository's own gate runs the Go
// front end over ./internal/... against lint-baseline.json). Baseline
// entries that no longer fire are printed as stale and counted in the
// summary; they do not change the exit status.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/constinfer"
	"repro/internal/driver"
	"repro/internal/gofront" // also registers the -lang go front end
	"repro/internal/obs"
	"repro/internal/qual"
	"repro/internal/server"
)

const usage = "usage: cqual [-lang c|go] [-analysis LIST] [-prelude FILES] [-poly [-schemes]] [-v] [-json] [-stats] [-lint] [-baseline FILE] [-trace FILE] [-serve URL] file.c ... | ./pkg/... | -watch DIR"

func main() {
	lang := flag.String("lang", "c", "source language / front end (see driver.FrontEndLangs: c, go)")
	poly := flag.Bool("poly", false, "polymorphic qualifier inference (Section 4.3)")
	verbose := flag.Bool("v", false, "list every position, not just the summary")
	suggest := flag.Bool("suggest", false, "print re-declared signatures with inferred consts inserted")
	schemes := flag.Bool("schemes", false, "print inferred polymorphic qualifier schemes (with -poly)")
	uninit := flag.Bool("uninit", false, "also run the flow-sensitive definite-initialization check (Section 6 extension)")
	jsonOut := flag.Bool("json", false, "emit the report and diagnostics as JSON")
	stats := flag.Bool("stats", false, "print solver statistics (system size, solve time) and the garbage collector's cost to stderr")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the pipeline to this file (view in chrome://tracing or Perfetto)")
	serve := flag.String("serve", "", "analyze via a running cquald daemon at this base URL instead of locally")
	analysisFlag := flag.String("analysis", "const", "comma-separated qualifier analyses to run together (see -analyses)")
	preludeFlag := flag.String("prelude", "", "comma-separated prelude files declaring library seeds and sinks")
	listAnalyses := flag.Bool("analyses", false, "list the registered qualifier analyses and exit")
	lint := flag.Bool("lint", false, "vet-style output: one finding per line (with -json, a findings array with stable rule ids)")
	baselineFlag := flag.String("baseline", "", "with -lint, suppress findings recorded in this baseline file (a previous `-lint -json` output)")
	watch := flag.Bool("watch", false, "watch the one directory argument and re-analyze its source files whenever one appears, changes or disappears")
	flag.Parse()

	if *listAnalyses {
		printAnalyses()
		return
	}
	cfg := driver.Config{
		Lang:     *lang,
		Options:  constinfer.Options{Poly: *poly},
		Uninit:   *uninit,
		Analyses: splitList(*analysisFlag),
	}
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "cqual:", err)
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	for _, path := range splitList(*preludeFlag) {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqual:", err)
			os.Exit(2)
		}
		cfg.Preludes = append(cfg.Preludes, driver.PreludeFile{Path: path, Text: string(text)})
	}

	if *baselineFlag != "" && !*lint {
		fmt.Fprintln(os.Stderr, "cqual: -baseline only applies with -lint")
		os.Exit(2)
	}
	if *schemes && !*poly {
		fmt.Fprintln(os.Stderr, "cqual: -schemes only applies with -poly")
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if *watch && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "cqual: -watch takes one directory argument")
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if *serve != "" {
		if *watch {
			fmt.Fprintln(os.Stderr, "cqual: -watch runs the local pipeline and cannot be combined with -serve")
			os.Exit(2)
		}
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "cqual: -trace records the local pipeline and cannot be combined with -serve (use the daemon's ?trace=1 instead)")
			os.Exit(2)
		}
		if *lint {
			fmt.Fprintln(os.Stderr, "cqual: -lint renders findings from the local pipeline and cannot be combined with -serve")
			os.Exit(2)
		}
		os.Exit(runRemote(*serve, cfg, *jsonOut, flag.Args(), os.Stdout, os.Stderr))
	}

	local := &localRun{
		cfg:     cfg,
		verbose: *verbose, suggest: *suggest, schemes: *schemes,
		jsonOut: *jsonOut, stats: *stats, lint: *lint,
		traceFile: *traceFile, baseline: *baselineFlag,
	}
	if *watch {
		os.Exit(runWatch(local, flag.Arg(0)))
	}
	_, code := local.run(context.Background(), flag.Args(), os.Stdout, os.Stderr)
	os.Exit(code)
}

// localRun is what one local analysis needs: the pipeline config and
// the flags that shape the output.
type localRun struct {
	cfg                                             driver.Config
	verbose, suggest, schemes, jsonOut, stats, lint bool
	traceFile, baseline                             string
}

// run analyzes the inputs once and writes what cqual prints: the report
// to stdout, warnings, failures and -stats to stderr. It returns the
// pipeline's result (nil if the pipeline failed) and the exit status: 0
// clean, 1 qualifier conflicts (or new -lint findings), 2 a front-end or
// pipeline failure.
func (o *localRun) run(ctx context.Context, inputs []string, stdout, stderr io.Writer) (*driver.Result, int) {
	var tracer *obs.Tracer
	if o.traceFile != "" {
		tracer = obs.NewTracer(nil)
		ctx = obs.WithTracer(ctx, tracer)
	}
	res, err := driver.RunContext(ctx, o.cfg, driver.FileSources(inputs...))
	if tracer != nil {
		// Written before the exit-status paths below: a run that found
		// conflicts is exactly the one worth profiling.
		if werr := writeTrace(o.traceFile, tracer); werr != nil {
			fmt.Fprintln(stderr, "cqual:", werr)
			return res, 2
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "cqual:", err)
		return nil, 2
	}
	if o.lint {
		return res, runLint(res, o.baseline, o.jsonOut, stdout, stderr)
	}
	if res.Report == nil {
		// Front-end failure: every load/parse error has a diagnostic.
		if o.jsonOut {
			emitJSON(res, stdout, stderr)
			return res, 2
		}
		for _, d := range res.Errors() {
			fmt.Fprintln(stderr, "cqual:", d.Message)
		}
		return res, 2
	}

	if o.stats {
		printSolverStats(stderr, res)
		if o.cfg.Lang == "go" {
			fmt.Fprintln(stderr, "stdlib importer:", gofront.StdlibImporter())
		}
		fmt.Fprintln(stderr, gcStats())
	}

	if o.jsonOut {
		if !emitJSON(res, stdout, stderr) {
			return res, 2
		}
		if len(res.Report.Conflicts) > 0 {
			return res, 1
		}
		return res, 0
	}

	for _, d := range res.Diagnostics {
		if d.Severity == driver.SevWarning && d.Stage == driver.StageBuild {
			fmt.Fprintln(stderr, "cqual: warning:", d.Message)
		}
	}

	rep := res.Report
	constSelected := false
	for _, name := range o.cfg.Analyses {
		if name == "const" {
			constSelected = true
		}
	}
	if o.verbose && constSelected {
		printPositions(stdout, rep)
	}
	if o.suggest && constSelected {
		for _, s := range rep.Suggested {
			fmt.Fprintf(stdout, "%s: %s\n    was: %s\n    now: %s\n", s.Pos, s.Func, s.Old, s.New)
		}
	}
	if o.schemes && constSelected && res.Analysis != nil {
		names := make([]string, 0, len(rep.Positions))
		seen := map[string]bool{}
		for _, p := range rep.Positions {
			if !seen[p.Func] {
				seen[p.Func] = true
				names = append(names, p.Func)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if s, ok := res.Analysis.SchemeString(name); ok {
				fmt.Fprintln(stdout, s)
			}
		}
	}
	if constSelected {
		printSummary(stdout, rep, o.cfg.Options)
	} else {
		// The position summary is const-specific; other analyses report
		// per-analysis conflict counts instead.
		counts := map[string]int{}
		for _, d := range res.Diagnostics {
			if d.Code == "qualifier-conflict" {
				counts[d.Analysis]++
			}
		}
		fmt.Fprintf(stdout, "qualifier analysis (%s): %d functions, %d constraints\n",
			strings.Join(o.cfg.Analyses, ", "), rep.Functions, rep.Constraints)
		for _, name := range o.cfg.Analyses {
			fmt.Fprintf(stdout, "  %-10s %d conflict(s)\n", name+":", counts[name])
		}
	}

	if o.cfg.Uninit {
		warned := 0
		for _, d := range res.Diagnostics {
			if d.Stage == driver.StageInit {
				fmt.Fprintf(stdout, "%s: %s\n", d.Pos, d.Message)
				warned++
			}
		}
		fmt.Fprintf(stdout, "definite-initialization: %d warning(s)\n", warned)
	}

	var conflicts []driver.Diagnostic
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts = append(conflicts, d)
		}
	}
	if len(conflicts) > 0 {
		fmt.Fprintf(stdout, "\n%d qualifier conflict(s):\n", len(conflicts))
		for _, d := range conflicts {
			fmt.Fprintln(stdout, "  "+strings.ReplaceAll(d.String(), "\n", "\n  "))
		}
		return res, 1
	}
	return res, 0
}

// runLint renders the run as vet-style findings and returns the exit
// status: 0 clean, 1 new findings, 2 front-end failure. A baseline, if
// given, suppresses its recorded findings from both the text output
// and the exit status; `-json` always emits the full findings array
// (so redirecting it refreshes the baseline) while the exit status
// still honors the baseline.
func runLint(res *driver.Result, baselinePath string, jsonOut bool, stdout, stderr io.Writer) int {
	findings := driver.Findings(res)
	shown := findings
	var stale []driver.Finding
	if baselinePath != "" {
		base, err := driver.LoadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "cqual:", err)
			return 2
		}
		shown = base.New(findings)
		stale = base.Stale(findings)
	}
	if jsonOut {
		if err := driver.WriteLintJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "cqual:", err)
			return 2
		}
	} else {
		for _, f := range shown {
			fmt.Fprintln(stdout, f.String())
		}
		if baselinePath != "" {
			for _, f := range stale {
				fmt.Fprintf(stderr, "cqual: stale baseline entry: %s\n", f)
			}
			fmt.Fprintf(stderr, "cqual: %d new finding(s), %d suppressed by baseline %s, %d stale\n",
				len(shown), len(findings)-len(shown), baselinePath, len(stale))
		}
	}
	switch {
	case res.Report == nil:
		return 2
	case len(shown) > 0:
		return 1
	default:
		return 0
	}
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// printAnalyses lists the registry for -analyses: every analysis with
// its qualifier, lattice shape, prelude expectations, and annotation
// vocabulary.
func printAnalyses() {
	for _, name := range analysis.Names() {
		a, _ := analysis.Lookup(name)
		sign := "positive"
		if a.Qual.Sign == qual.Negative {
			sign = "negative"
		}
		qualifier := a.Qual.Name
		if a.Qual.NegName != "" {
			qualifier += " (absence: " + a.Qual.NegName + ")"
		}
		// The two-point component lattice, bottom first: a positive
		// qualifier's presence is its top (¬const ⊑ const), a negative
		// qualifier's presence is its bottom (untainted ⊑ tainted).
		absent := a.Qual.NegName
		if absent == "" {
			absent = "¬" + a.Qual.Name
		}
		bottom, top := absent, a.Qual.Name
		if a.Qual.Sign == qual.Negative {
			bottom, top = a.Qual.Name, absent
		}
		prelude := "optional"
		if a.WantsPrelude {
			prelude = "recommended (seeds and sinks come from -prelude)"
		}
		fmt.Printf("%s — %s\n", a.Name, a.Doc)
		fmt.Printf("  qualifier:   %s, %s\n", qualifier, sign)
		fmt.Printf("  lattice:     %s ⊑ %s (two-point, one component of the product lattice)\n", bottom, top)
		fmt.Printf("  prelude:     %s\n", prelude)
		var anns []string
		for _, n := range a.AnnotationNames() {
			anns = append(anns, fmt.Sprintf("%s (%s)", n, a.Annotations[n].Kind))
		}
		fmt.Printf("  annotations: %s\n", strings.Join(anns, ", "))
	}
}

// runRemote is the -serve client: it reads the files locally, POSTs them
// to a cquald daemon, and prints the daemon's report verbatim. The exit
// status mirrors the -json local path (0 clean, 1 conflicts, 2 front-end
// or transport failure) so scripts can swap -serve in and out. With
// -lang go the arguments must be .go files (the daemon analyzes
// request-supplied texts as one package; package patterns are local).
//
// The daemon's X-Trace-Id names the flight-recorder trace it kept (or
// may have kept) for this request. With -json it is spliced into the
// report as a leading "trace_id" member; without -json the report
// stays byte-verbatim (scripts diff it), and a failing run instead
// points at the retained trace in a stderr footer.
func runRemote(base string, cfg driver.Config, jsonOut bool, paths []string, stdout, stderr io.Writer) int {
	lang := cfg.Lang
	if lang == "c" {
		lang = "" // the wire default; keeps C requests byte-identical
	}
	req := server.AnalyzeRequest{
		Lang:     lang,
		Poly:     cfg.Options.Poly,
		Uninit:   cfg.Uninit,
		Analyses: cfg.Analyses,
	}
	for _, p := range cfg.Preludes {
		req.Preludes = append(req.Preludes, server.PreludeJSON{Path: p.Path, Text: p.Text})
	}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(stderr, "cqual:", err)
			return 2
		}
		req.Sources = append(req.Sources, server.SourceJSON{Path: p, Text: string(text)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(stderr, "cqual:", err)
		return 2
	}
	base = strings.TrimRight(base, "/")
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(stderr, "cqual:", err)
		return 2
	}
	defer resp.Body.Close()
	report, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(stderr, "cqual:", err)
		return 2
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "cqual: %s: %s: %s", base, resp.Status, report)
		traceFooter(stderr, base, traceID)
		return 2
	}
	if jsonOut {
		stdout.Write(spliceTraceID(report, traceID))
	} else {
		stdout.Write(report)
	}

	// The report is the wire contract; derive the exit status from it
	// rather than from a side channel.
	var parsed struct {
		Summary *struct {
			Conflicts int `json:"conflicts"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(report, &parsed); err != nil {
		fmt.Fprintln(stderr, "cqual: malformed report:", err)
		return 2
	}
	// With -json the trace id is already in the report; for humans, a
	// failing run gets a stderr pointer at the retained trace instead.
	footer := func() {
		if !jsonOut {
			traceFooter(stderr, base, traceID)
		}
	}
	switch {
	case parsed.Summary == nil:
		footer()
		return 2 // front-end failure: diagnostics only, no report
	case parsed.Summary.Conflicts > 0:
		footer()
		return 1
	default:
		return 0
	}
}

// spliceTraceID inserts the daemon's X-Trace-Id as a leading "trace_id"
// member of the JSON report, preserving the two-space indentation the
// daemon renders with. Reports that don't look like that rendering (or
// an absent id) pass through untouched — the verbatim body is the wire
// contract, and plain -serve output must stay byte-identical run to run.
func spliceTraceID(report []byte, id string) []byte {
	if id == "" || !bytes.HasPrefix(report, []byte("{\n")) {
		return report
	}
	idJSON, err := json.Marshal(id)
	if err != nil {
		return report
	}
	var buf bytes.Buffer
	buf.Grow(len(report) + len(idJSON) + 16)
	buf.WriteString("{\n  \"trace_id\": ")
	buf.Write(idJSON)
	buf.WriteString(",\n")
	buf.Write(report[len("{\n"):])
	return buf.Bytes()
}

// traceFooter tells a human where the daemon's flight recorder kept (or
// tail-retains) the trace of a failing run. Stderr only: stdout carries
// the report verbatim.
func traceFooter(stderr io.Writer, base, traceID string) {
	if traceID == "" {
		return
	}
	fmt.Fprintf(stderr, "cqual: trace retained by daemon: GET %s/v1/traces/%s\n", base, traceID)
}

// writeTrace exports the recorded spans as Chrome trace-event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitJSON writes the JSON report to stdout. It reports an encoding
// failure on stderr and returns false.
func emitJSON(res *driver.Result, stdout, stderr io.Writer) bool {
	data, err := res.JSON()
	if err != nil {
		fmt.Fprintln(stderr, "cqual:", err)
		return false
	}
	// The newline goes out on its own: appending it to a report of
	// megabytes could copy the whole report to make room.
	stdout.Write(data)
	stdout.Write([]byte{'\n'})
	return true
}

// printSolverStats reports, on stderr, the size of the final constraint
// system (the counters the JSON report carries in its "solver" block)
// and the solve time.
func printSolverStats(w io.Writer, res *driver.Result) {
	st := res.Solver
	fmt.Fprintf(w, "solver: %d vars, %d constraints\n", st.Vars, st.Constraints)
	fmt.Fprintf(w, "  solve time: %v (analysis %v)\n", res.Timings.Solve, res.Timings.Analysis())
}

// gcStats describes the garbage collector's work in this process so far,
// from runtime/metrics: its cycles, the total time the program was
// paused for it, and its CPU time as a share of the CPU time the process
// used (the runtime's estimates: the available CPU time less idle time).
func gcStats() string {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s) // every one of them exists since Go 1.20
	cycles := s[0].Value.Uint64()
	// The pause metric counts every P as busy while the world is stopped.
	pause := time.Duration(s[1].Value.Float64() / float64(runtime.GOMAXPROCS(0)) * float64(time.Second))
	gc, used := s[2].Value.Float64(), s[3].Value.Float64()-s[4].Value.Float64()
	share := 0.0
	if used > 0 {
		share = 100 * gc / used
	}
	return fmt.Sprintf("gc: %d cycles, %v total pause, %.1f%% of process CPU", cycles, pause.Round(time.Microsecond), share)
}

func printPositions(w io.Writer, rep *constinfer.Report) {
	positions := append([]constinfer.PositionResult(nil), rep.Positions...)
	sort.Slice(positions, func(i, j int) bool {
		if positions[i].Func != positions[j].Func {
			return positions[i].Func < positions[j].Func
		}
		if positions[i].Index != positions[j].Index {
			return positions[i].Index < positions[j].Index
		}
		return positions[i].Depth < positions[j].Depth
	})
	for _, p := range positions {
		where := "result"
		if p.Index >= 0 {
			where = fmt.Sprintf("param %q", p.Param)
			if p.Param == "" {
				where = fmt.Sprintf("param #%d", p.Index)
			}
		}
		marker := " "
		if p.Verdict == constinfer.Either && !p.Declared {
			marker = "+" // a const the programmer could add
		}
		decl := ""
		if p.Declared {
			decl = " (declared)"
		}
		fmt.Fprintf(w, "%s %s: %s level %d: %s%s\n", marker, p.Func, where, p.Depth, p.Verdict, decl)
	}
}

func printSummary(w io.Writer, rep *constinfer.Report, opts constinfer.Options) {
	mode := "monomorphic"
	if opts.Poly {
		mode = "polymorphic"
	}
	addable := rep.Inferred - rep.Declared
	fmt.Fprintf(w, "%s const inference: %d functions, %d positions\n", mode, rep.Functions, rep.Total)
	fmt.Fprintf(w, "  declared const:   %d\n", rep.Declared)
	fmt.Fprintf(w, "  inferrable const: %d (%d more than declared)\n", rep.Inferred, addable)
	fmt.Fprintf(w, "  never const:      %d\n", rep.Total-rep.Inferred)
}
