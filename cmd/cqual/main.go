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
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/constinfer"
	"repro/internal/driver"
	"repro/internal/gofront" // also registers the -lang go front end
	"repro/internal/obs"
	"repro/internal/qual"
	"repro/internal/server"
)

const usage = "usage: cqual [-lang c|go] [-analysis LIST] [-prelude FILES] [-poly [-schemes]] [-v] [-json] [-stats] [-lint] [-baseline FILE] [-trace FILE] [-serve URL] file.c ... | ./pkg/..."

func main() {
	lang := flag.String("lang", "c", "source language / front end (see driver.FrontEndLangs: c, go)")
	poly := flag.Bool("poly", false, "polymorphic qualifier inference (Section 4.3)")
	verbose := flag.Bool("v", false, "list every position, not just the summary")
	suggest := flag.Bool("suggest", false, "print re-declared signatures with inferred consts inserted")
	schemes := flag.Bool("schemes", false, "print inferred polymorphic qualifier schemes (with -poly)")
	uninit := flag.Bool("uninit", false, "also run the flow-sensitive definite-initialization check (Section 6 extension)")
	jsonOut := flag.Bool("json", false, "emit the report and diagnostics as JSON")
	stats := flag.Bool("stats", false, "print solver statistics (system size, solve time) to stderr")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the pipeline to this file (view in chrome://tracing or Perfetto)")
	serve := flag.String("serve", "", "analyze via a running cquald daemon at this base URL instead of locally")
	analysisFlag := flag.String("analysis", "const", "comma-separated qualifier analyses to run together (see -analyses)")
	preludeFlag := flag.String("prelude", "", "comma-separated prelude files declaring library seeds and sinks")
	listAnalyses := flag.Bool("analyses", false, "list the registered qualifier analyses and exit")
	lint := flag.Bool("lint", false, "vet-style output: one finding per line (with -json, a findings array with stable rule ids)")
	baselineFlag := flag.String("baseline", "", "with -lint, suppress findings recorded in this baseline file (a previous `-lint -json` output)")
	flag.Parse()

	if *listAnalyses {
		printAnalyses()
		return
	}
	if _, ok := driver.LookupFrontEnd(*lang); !ok {
		fmt.Fprintf(os.Stderr, "cqual: unknown language %q (registered: %s)\n",
			*lang, strings.Join(driver.FrontEndLangs(), ", "))
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	analyses := splitList(*analysisFlag)
	for _, name := range analyses {
		if _, ok := analysis.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "cqual: unknown analysis %q (registered: %s)\n",
				name, strings.Join(analysis.Names(), ", "))
			fmt.Fprintln(os.Stderr, usage)
			os.Exit(2)
		}
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	var preludes []driver.PreludeFile
	for _, path := range splitList(*preludeFlag) {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqual:", err)
			os.Exit(2)
		}
		preludes = append(preludes, driver.PreludeFile{Path: path, Text: string(text)})
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
	if *serve != "" {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "cqual: -trace records the local pipeline and cannot be combined with -serve (use the daemon's ?trace=1 instead)")
			os.Exit(2)
		}
		if *lint {
			fmt.Fprintln(os.Stderr, "cqual: -lint renders findings from the local pipeline and cannot be combined with -serve")
			os.Exit(2)
		}
		os.Exit(runRemote(*serve, remoteOptions{
			lang:     *lang,
			poly:     *poly,
			uninit:   *uninit,
			analyses: analyses, preludes: preludes, jsonOut: *jsonOut,
		}, flag.Args(), os.Stdout, os.Stderr))
	}

	cfg := driver.Config{
		Lang:     *lang,
		Options:  constinfer.Options{Poly: *poly},
		Uninit:   *uninit,
		Analyses: analyses,
		Preludes: preludes,
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(nil)
		ctx = obs.WithTracer(ctx, tracer)
	}
	res, err := driver.RunContext(ctx, cfg, driver.FileSources(flag.Args()...))
	if tracer != nil {
		// Written before the exit-status paths below: a run that found
		// conflicts is exactly the one worth profiling.
		if werr := writeTrace(*traceFile, tracer); werr != nil {
			fmt.Fprintln(os.Stderr, "cqual:", werr)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqual:", err)
		os.Exit(2)
	}
	if *lint {
		os.Exit(runLint(res, *baselineFlag, *jsonOut))
	}
	if res.Report == nil {
		// Front-end failure: every load/parse error has a diagnostic.
		if *jsonOut {
			emitJSON(res)
			os.Exit(2)
		}
		for _, d := range res.Errors() {
			fmt.Fprintln(os.Stderr, "cqual:", d.Message)
		}
		os.Exit(2)
	}

	if *stats {
		printSolverStats(res)
		if *lang == "go" {
			fmt.Fprintln(os.Stderr, "stdlib importer:", gofront.StdlibImporter())
		}
	}

	if *jsonOut {
		emitJSON(res)
		if len(res.Report.Conflicts) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, d := range res.Diagnostics {
		if d.Severity == driver.SevWarning && d.Stage == driver.StageBuild {
			fmt.Fprintln(os.Stderr, "cqual: warning:", d.Message)
		}
	}

	rep := res.Report
	constSelected := false
	for _, name := range analyses {
		if name == "const" {
			constSelected = true
		}
	}
	if *verbose && constSelected {
		printPositions(rep)
	}
	if *suggest && constSelected {
		for _, s := range rep.Suggested {
			fmt.Printf("%s: %s\n    was: %s\n    now: %s\n", s.Pos, s.Func, s.Old, s.New)
		}
	}
	if *schemes && constSelected && res.Analysis != nil {
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
				fmt.Println(s)
			}
		}
	}
	if constSelected {
		printSummary(rep, cfg.Options)
	} else {
		// The position summary is const-specific; other analyses report
		// per-analysis conflict counts instead.
		counts := map[string]int{}
		for _, d := range res.Diagnostics {
			if d.Code == "qualifier-conflict" {
				counts[d.Analysis]++
			}
		}
		fmt.Printf("qualifier analysis (%s): %d functions, %d constraints\n",
			strings.Join(analyses, ", "), rep.Functions, rep.Constraints)
		for _, name := range analyses {
			fmt.Printf("  %-10s %d conflict(s)\n", name+":", counts[name])
		}
	}

	if *uninit {
		warned := 0
		for _, d := range res.Diagnostics {
			if d.Stage == driver.StageInit {
				fmt.Printf("%s: %s\n", d.Pos, d.Message)
				warned++
			}
		}
		fmt.Printf("definite-initialization: %d warning(s)\n", warned)
	}

	var conflicts []driver.Diagnostic
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts = append(conflicts, d)
		}
	}
	if len(conflicts) > 0 {
		fmt.Printf("\n%d qualifier conflict(s):\n", len(conflicts))
		for _, d := range conflicts {
			fmt.Println("  " + strings.ReplaceAll(d.String(), "\n", "\n  "))
		}
		os.Exit(1)
	}
}

// runLint renders the run as vet-style findings and returns the exit
// status: 0 clean, 1 new findings, 2 front-end failure. A baseline, if
// given, suppresses its recorded findings from both the text output
// and the exit status; `-json` always emits the full findings array
// (so redirecting it refreshes the baseline) while the exit status
// still honors the baseline.
func runLint(res *driver.Result, baselinePath string, jsonOut bool) int {
	findings := driver.Findings(res)
	shown := findings
	var stale []driver.Finding
	if baselinePath != "" {
		base, err := driver.LoadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqual:", err)
			return 2
		}
		shown = base.New(findings)
		stale = base.Stale(findings)
	}
	if jsonOut {
		if err := driver.WriteLintJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "cqual:", err)
			return 2
		}
	} else {
		for _, f := range shown {
			fmt.Println(f.String())
		}
		if baselinePath != "" {
			for _, f := range stale {
				fmt.Fprintf(os.Stderr, "cqual: stale baseline entry: %s\n", f)
			}
			fmt.Fprintf(os.Stderr, "cqual: %d new finding(s), %d suppressed by baseline %s, %d stale\n",
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

type remoteOptions struct {
	lang         string
	poly, uninit bool
	analyses     []string
	preludes     []driver.PreludeFile
	jsonOut      bool
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
func runRemote(base string, opts remoteOptions, paths []string, stdout, stderr io.Writer) int {
	lang := opts.lang
	if lang == "c" {
		lang = "" // the wire default; keeps C requests byte-identical
	}
	req := server.AnalyzeRequest{
		Lang:     lang,
		Poly:     opts.poly,
		Uninit:   opts.uninit,
		Analyses: opts.analyses,
	}
	for _, p := range opts.preludes {
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
	if opts.jsonOut {
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
		if !opts.jsonOut {
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

func emitJSON(res *driver.Result) {
	data, err := res.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqual:", err)
		os.Exit(2)
	}
	// The newline goes out on its own: appending it to a report of
	// megabytes could copy the whole report to make room.
	os.Stdout.Write(data)
	os.Stdout.Write([]byte{'\n'})
}

// printSolverStats reports, on stderr, the size of the final constraint
// system (the counters the JSON report carries in its "solver" block)
// and the solve time.
func printSolverStats(res *driver.Result) {
	st := res.Solver
	fmt.Fprintf(os.Stderr, "solver: %d vars, %d constraints\n", st.Vars, st.Constraints)
	fmt.Fprintf(os.Stderr, "  solve time: %v (analysis %v)\n", res.Timings.Solve, res.Timings.Analysis())
}

func printPositions(rep *constinfer.Report) {
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
		fmt.Printf("%s %s: %s level %d: %s%s\n", marker, p.Func, where, p.Depth, p.Verdict, decl)
	}
}

func printSummary(rep *constinfer.Report, opts constinfer.Options) {
	mode := "monomorphic"
	if opts.Poly {
		mode = "polymorphic"
	}
	addable := rep.Inferred - rep.Declared
	fmt.Printf("%s const inference: %d functions, %d positions\n", mode, rep.Functions, rep.Total)
	fmt.Printf("  declared const:   %d\n", rep.Declared)
	fmt.Printf("  inferrable const: %d (%d more than declared)\n", rep.Inferred, addable)
	fmt.Printf("  never const:      %d\n", rep.Total-rep.Inferred)
}
