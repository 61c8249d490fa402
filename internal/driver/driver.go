// Package driver is the staged analysis pipeline of the repository: Load
// → Parse → Build → Constrain → Solve → Classify → Report, the end-to-end
// shape of the paper's Section 4.4 evaluation. Every binary and
// experiment runs a program through this one pipeline instead of
// hand-rolling its own parse→infer→report loop.
//
// The stages have explicit inputs and outputs, every stage is timed
// (Timings), and everything the pipeline can say about a program is
// expressed as a Diagnostic. The Parse stage parses files concurrently;
// every later stage runs on the caller's goroutine.
package driver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/initcheck"
	"repro/internal/obs"
)

// Config selects the front end and analysis mode for the qualifier
// pipeline.
type Config struct {
	// Lang selects the front end ("c", "go"); empty means "c". The
	// language is part of every result-cache key.
	Lang string
	// Options is the inference mode (mono/poly). Setting
	// Options.PolyRec fails Check; Options.Simplify is ignored.
	Options constinfer.Options
	// Jobs has no effect: constraint generation is sequential. Kept for
	// bench/replay.go, removed with the next benchmark change.
	Jobs int
	// SolveJobs has no effect: the solve is sequential. Kept for
	// bench/replay.go, removed with the next benchmark change.
	SolveJobs int
	// Uninit additionally runs the flow-sensitive
	// definite-initialization check and reports its warnings.
	Uninit bool
	// Analyses names the registered qualifier analyses to run together
	// in one constraint pass over the shared product lattice (see
	// internal/analysis). Nil or empty selects the classic const
	// inference; unknown names fail Check.
	Analyses []string
	// Preludes are annotation files declaring library-function seeds
	// and sinks for the selected analyses (`analysis taint` / `getenv(_)
	// -> tainted`). Parse failures surface as prelude-error diagnostics.
	Preludes []PreludeFile
	// Summaries has no effect: every run constrains cold. Kept for
	// bench/replay.go, removed with the next benchmark change.
	Summaries any
}

// PreludeFile is one qualifier prelude: the path (used for positions and
// cache keys) and its text.
type PreludeFile struct {
	Path string
	Text string
}

// AnalysisNames returns the analyses the config selects, defaulting to
// the classic const inference.
func (c Config) AnalysisNames() []string {
	if len(c.Analyses) == 0 {
		return []string{"const"}
	}
	return c.Analyses
}

// Source is one input translation unit. When Text is empty the Load
// stage reads Path from disk.
type Source struct {
	// Path names the file; it is used for positions.
	Path string
	// Text is the source text, when already in memory.
	Text string
}

// FileSources builds Sources that the Load stage reads from disk.
func FileSources(paths ...string) []Source {
	out := make([]Source, len(paths))
	for i, p := range paths {
		out[i] = Source{Path: p}
	}
	return out
}

// TextSource builds an in-memory Source.
func TextSource(name, text string) Source {
	return Source{Path: name, Text: text}
}

// Timings records the wall-clock duration of each pipeline stage.
type Timings struct {
	Load      time.Duration
	Parse     time.Duration
	Build     time.Duration
	Constrain time.Duration
	Solve     time.Duration
	Classify  time.Duration
	// Report is the diagnostic-assembly stage: conflict rendering (with
	// flow traces) and the optional initialization check. It is recorded
	// uniformly by Run/RunContext/RunFiles, so the per-stage timings sum
	// to the pipeline's wall clock.
	Report time.Duration
	Eval   time.Duration
}

// stages pairs each Timings field with its stage name and the report's
// key for it, in pipeline order: the seven stages of a program run, then
// the lambda pipeline's eval. The report, Total and ProgramStages read
// it.
var stages = [...]struct {
	name, key string
	field     func(*Timings) *time.Duration
}{
	{"load", "load_ms", func(t *Timings) *time.Duration { return &t.Load }},
	{"parse", "parse_ms", func(t *Timings) *time.Duration { return &t.Parse }},
	{"build", "build_ms", func(t *Timings) *time.Duration { return &t.Build }},
	{"constrain", "constrain_ms", func(t *Timings) *time.Duration { return &t.Constrain }},
	{"solve", "solve_ms", func(t *Timings) *time.Duration { return &t.Solve }},
	{"classify", "classify_ms", func(t *Timings) *time.Duration { return &t.Classify }},
	{"report", "report_ms", func(t *Timings) *time.Duration { return &t.Report }},
	{"eval", "eval_ms", func(t *Timings) *time.Duration { return &t.Eval }},
}

// ProgramStages yields the name and field of each stage a program run
// times, in pipeline order: every stage but eval.
func (t *Timings) ProgramStages(yield func(name string, d *time.Duration) bool) {
	for _, s := range stages[:len(stages)-1] {
		if !yield(s.name, s.field(t)) {
			return
		}
	}
}

// Analysis is the total inference time: everything after the front end
// (the paper's Mono/Poly columns; Parse is its "Compile time" column).
func (t Timings) Analysis() time.Duration {
	return t.Build + t.Constrain + t.Solve + t.Classify
}

// Total sums every stage: the pipeline's wall clock as the stages saw
// it.
func (t Timings) Total() time.Duration {
	var sum time.Duration
	for _, s := range stages {
		sum += *s.field(&t)
	}
	return sum
}

// stageTimer is an open stage: its span, its start and the Timings field
// its duration is added to.
type stageTimer struct {
	sp    *obs.Span
	start time.Time
	d     *time.Duration
}

// startStage opens the span named span on tr and starts timing the stage
// whose field is d.
func startStage(tr *obs.Tracer, span string, d *time.Duration, attrs ...obs.Attr) stageTimer {
	sp := tr.Start("driver", span, attrs...)
	return stageTimer{sp: sp, start: time.Now(), d: d}
}

// end adds the stage's duration to its field and closes its span.
func (s stageTimer) end() {
	*s.d += time.Since(s.start)
	s.sp.End()
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Config echoes the configuration of the run.
	Config Config
	// Program is the parsed corpus from the selected front end; nil only
	// when the run never reached the Parse stage.
	Program Program
	// Files are the parsed C translation units (nil entries for sources
	// that failed to load or parse); nil for non-C front ends.
	Files []*cfront.File
	// Analysis is the underlying C engine, for callers that need scheme
	// rendering or other drill-down; nil if the front end failed or the
	// run used a non-C front end.
	Analysis *constinfer.Analysis
	// Report is the classification; nil if the front end failed.
	Report *constinfer.Report
	// Diagnostics collects every error and warning of the run, in stage
	// order: load/parse errors, qualifier conflicts, then initialization
	// warnings.
	Diagnostics []Diagnostic
	// Timings records per-stage wall-clock times.
	Timings Timings
	// Solver records the size of the final constraint system, as the
	// classified report counts it (zero value if the run never reached
	// Classify).
	Solver constraint.SolveStats
	// Delta is always nil. No effect; kept for bench/replay.go, removed
	// with the next benchmark change.
	Delta *constraint.DeltaStats
}

// HasErrors reports whether any diagnostic is an error.
func (r *Result) HasErrors() bool { return hasErrors(r.Diagnostics) }

// Errors returns the error diagnostics.
func (r *Result) Errors() []Diagnostic { return errorDiagnostics(r.Diagnostics) }

// Check reports whether the config selects a valid run: the retired
// Options.PolyRec is unset, the language has a registered front end
// that accepts the mode (FrontEnd.Check), and every analysis name is
// registered. RunContext and RunFiles call it first; cqual and the
// analysis server call it to refuse bad settings before any work.
func (c Config) Check() error {
	if c.Options.PolyRec {
		return errors.New("driver: polymorphic recursion (Options.PolyRec) was removed; Options.Poly is the polymorphic mode")
	}
	fe, ok := LookupFrontEnd(c.Lang)
	if !ok {
		return fmt.Errorf("unknown language %q (registered: %s)", c.Lang, strings.Join(FrontEndLangs(), ", "))
	}
	if err := fe.Check(c); err != nil {
		return err
	}
	for _, name := range c.Analyses {
		if _, ok := analysis.Lookup(name); !ok {
			return fmt.Errorf("unknown analysis %q (registered: %s)", name, strings.Join(analysis.Names(), ", "))
		}
	}
	return nil
}

// Run executes the full pipeline over the sources. Front-end failures do
// not abort the run early: every source is loaded and parsed and every
// failure is reported as a diagnostic, and only then, if any front-end
// error occurred, does the pipeline stop (Report stays nil). The
// returned error is reserved for invalid invocations (a config Check
// rejects, no sources).
func Run(cfg Config, sources []Source) (*Result, error) {
	return RunContext(context.Background(), cfg, sources)
}

// RunContext is Run with cancellation: the context is checked at every
// stage boundary, between parses, and inside Constrain (the C engine
// after each component of the function dependence graph, the Go engine
// between function bodies), and a cancelled or expired context aborts
// the pipeline with ctx.Err(). A Solve runs to completion before the
// deadline is noticed. A cancelled run returns no result, so a partial
// constraint system is never classified.
func RunContext(ctx context.Context, cfg Config, sources []Source) (*Result, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, errors.New("driver: no input sources")
	}
	fe, _ := LookupFrontEnd(cfg.Lang)
	res := &Result{Config: cfg}
	tr := obs.FromContext(ctx)
	run := tr.Start("driver", "driver.run",
		obs.String("mode", cfg.Mode()),
		obs.String("analyses", strings.Join(cfg.AnalysisNames(), ",")),
		obs.Int("sources", len(sources)))
	defer run.End()

	// Load: resolve every input into file sources, collecting every
	// failure (a front end may expand one input into many files).
	load := startStage(tr, "driver.load", &res.Timings.Load, obs.Int("sources", len(sources)))
	files, loadErrs := fe.Load(sources)
	load.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Parse: the front end parses the loaded files (concurrently if it
	// chooses); one span brackets the whole stage (per-file spans would
	// make traces scheduling-dependent).
	parse := startStage(tr, "driver.parse", &res.Timings.Parse, obs.Int("files", len(files)))
	prog, parseErrs := fe.Parse(ctx, files, loadErrs)
	parse.end()
	res.Program = prog
	if cp, ok := prog.(*CProgram); ok {
		res.Files = cp.Files
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Front-end diagnostics count toward the Report stage, so the stage
	// timings sum to wall clock on the failure path too. Load and parse
	// errors interleave per file, in file order. This share has no span.
	start := time.Now()
	for i := range files {
		if loadErrs[i] != nil {
			res.Diagnostics = append(res.Diagnostics, loadDiagnostic(files[i].Path, loadErrs[i]))
		} else if parseErrs[i] != nil {
			res.Diagnostics = append(res.Diagnostics, parseDiagnostic(files[i].Path, parseErrs[i]))
		}
	}
	// Front ends may attach non-fatal notes to the parsed program (the Go
	// front end downgrades type-check problems to warnings so analysis
	// always proceeds).
	if n, ok := prog.(interface{ Notes() []Diagnostic }); ok && n != nil {
		res.Diagnostics = append(res.Diagnostics, n.Notes()...)
	}
	res.Timings.Report += time.Since(start)
	if res.HasErrors() {
		return res, nil
	}

	if err := runAnalysis(ctx, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunFiles executes the pipeline over already-parsed C files, skipping
// the Load and Parse stages. It is used when the same parse is analyzed
// in several modes (the experiment's mono and poly passes).
func RunFiles(cfg Config, files []*cfront.File) (*Result, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("driver: no input files")
	}
	res := &Result{Config: cfg, Files: files, Program: &CProgram{Files: files}}
	if err := runAnalysis(context.Background(), cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runAnalysis drives the Build → Constrain → Solve → Classify stages and
// the optional initialization check over res.Program, checking ctx at
// each stage boundary.
func runAnalysis(ctx context.Context, cfg Config, res *Result) error {
	tr := obs.FromContext(ctx)
	build := startStage(tr, "driver.build", &res.Timings.Build)
	suite, diags := buildSuite(cfg)
	res.Diagnostics = append(res.Diagnostics, diags...)
	if suite == nil {
		// Prelude failures are front-end-style errors: reported as
		// diagnostics, no analysis runs, Report stays nil.
		build.end()
		return nil
	}
	a := res.Program.NewEngine(cfg, suite)
	if ca, ok := a.(*constinfer.Analysis); ok {
		res.Analysis = ca
	}

	a.Prepare()
	build.end()
	if err := ctx.Err(); err != nil {
		return err
	}

	cons := startStage(tr, "driver.constrain", &res.Timings.Constrain)
	err := constrain(ctx, a)
	cons.end()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	solve := startStage(tr, "driver.solve", &res.Timings.Solve)
	conflicts := a.SolveSystemContext(ctx)
	solve.end()
	if err := ctx.Err(); err != nil {
		return err
	}

	classify := startStage(tr, "driver.classify", &res.Timings.Classify)
	res.Report = a.Classify(conflicts)
	classify.end()
	// The report counts the solved system: it is the run's one record of
	// its size. Attributes read no clock, so setting them on the ended
	// solve span leaves the trace's timestamps as they were.
	res.Solver = constraint.SolveStats{Vars: res.Report.Vars, Constraints: res.Report.Constraints}
	solve.sp.SetAttr(obs.Int("vars", res.Solver.Vars),
		obs.Int("constraints", res.Solver.Constraints),
		obs.Int("conflicts", len(res.Report.Conflicts)))

	// Report: conflict diagnostics (each with its blame-path flow trace)
	// and the optional initialization check. Timed as its own stage so
	// the stage timings sum to wall clock for every caller.
	report := startStage(tr, "driver.report", &res.Timings.Report, obs.Int("conflicts", len(conflicts)))
	for _, u := range conflicts {
		res.Diagnostics = append(res.Diagnostics, conflictDiagnostic(a.Set(), suite, u))
	}
	if cfg.Uninit {
		for _, f := range res.Files {
			for _, w := range initcheck.CheckFile(f) {
				res.Diagnostics = append(res.Diagnostics, initDiagnostic(w))
			}
		}
	}
	report.end()
	return nil
}

// constrain runs the Constrain stage. It is the stage's one panic
// boundary: an engine panic, from any mode or front end, fails the stage
// with an error instead of killing the process, naming the function
// whose body was being walked when the engine reports it (the C engine's
// Walking).
func constrain(ctx context.Context, a Engine) (err error) {
	defer func() {
		if p := recover(); p != nil {
			where := ""
			if w, ok := a.(interface{ Walking() string }); ok && w.Walking() != "" {
				where = " in function " + w.Walking()
			}
			err = fmt.Errorf("constrain: internal error%s: %v", where, p)
		}
	}()
	a.ConstrainContext(ctx, 0)
	return nil
}

// buildSuite resolves the config's analysis names, which Check has
// validated, and preludes into a bound suite. Prelude problems are input
// problems reported as diagnostics with a nil suite. A prelude-wanting
// analysis running without one gets an advisory warning alongside a
// non-nil suite.
func buildSuite(cfg Config) (*analysis.Suite, []Diagnostic) {
	names := cfg.AnalysisNames()
	var diags []Diagnostic
	var preludes []*analysis.Prelude
	for _, p := range cfg.Preludes {
		pr, err := analysis.ParsePrelude(p.Path, p.Text)
		if err != nil {
			diags = append(diags, preludeDiagnostic(p.Path, err))
			continue
		}
		preludes = append(preludes, pr)
	}
	if len(diags) > 0 {
		return nil, diags
	}
	suite, err := analysis.NewSuite(names, preludes)
	if err != nil {
		return nil, []Diagnostic{preludeDiagnostic("", err)}
	}
	for _, b := range suite.Bindings() {
		if b.A.WantsPrelude && !b.HasPrelude() {
			diags = append(diags, Diagnostic{
				Severity: SevWarning,
				Stage:    StageBuild,
				Code:     "no-prelude",
				Analysis: b.A.Name,
				Message: fmt.Sprintf("analysis %q has no prelude: no seeds or sinks are defined (use -prelude)",
					b.A.Name),
			})
		}
	}
	return suite, diags
}
