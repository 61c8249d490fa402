// Package driver is the staged analysis pipeline of the repository: Load
// → Parse → Build → Constrain → Solve → Classify → Report, the end-to-end
// shape of the paper's Section 4.4 evaluation. Every binary and
// experiment runs a program through this one pipeline instead of
// hand-rolling its own parse→infer→report loop.
//
// The stages have explicit inputs and outputs, every stage is timed
// (Timings), and everything the pipeline can say about a program is
// expressed as a Diagnostic. The Parse stage parses files concurrently;
// the Constrain stage generates per-function constraints on a
// GOMAXPROCS-bounded worker pool with a deterministic merge, so results
// are byte-identical for every worker count (see constinfer/parallel.go).
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
	// language is part of every cache and session key.
	Lang string
	// Options is the inference mode (mono/poly/polyrec/simplify).
	Options constinfer.Options
	// Jobs bounds the constraint-generation worker pool; 0 means
	// GOMAXPROCS. Results are identical for every value.
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
	// inference; unknown names fail the run with an error.
	Analyses []string
	// Preludes are annotation files declaring library-function seeds
	// and sinks for the selected analyses (`analysis taint` / `getenv(_)
	// -> tainted`). Parse failures surface as prelude-error diagnostics.
	Preludes []PreludeFile
	// Summaries, when non-nil, memoizes per-function constraint
	// summaries across runs (see constinfer.SummaryCache and
	// internal/cache): unchanged functions replay their cached
	// fragments instead of re-deriving them, with byte-identical
	// output. It is excluded from request cache keys — it changes
	// cost, never results.
	Summaries constinfer.SummaryCache
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

// Analysis is the total inference time: everything after the front end
// (the paper's Mono/Poly columns; Parse is its "Compile time" column).
func (t Timings) Analysis() time.Duration {
	return t.Build + t.Constrain + t.Solve + t.Classify
}

// Total sums every stage: the pipeline's wall clock as the stages saw
// it.
func (t Timings) Total() time.Duration {
	return t.Load + t.Parse + t.Analysis() + t.Report + t.Eval
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
	// Solver records the size of the final constraint system and how much
	// the solver's cycle condensation compressed it (zero value if the
	// front end failed and the Solve stage never ran).
	Solver constraint.SolveStats
	// Delta is always nil. No effect; kept for bench/replay.go, removed
	// with the next benchmark change.
	Delta *constraint.DeltaStats
}

// HasErrors reports whether any diagnostic is an error.
func (r *Result) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns the error diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Run executes the full pipeline over the sources. Front-end failures do
// not abort the run early: every source is loaded and parsed and every
// failure is reported as a diagnostic, and only then, if any front-end
// error occurred, does the pipeline stop (Report stays nil). The
// returned error is reserved for invalid invocations (no sources).
func Run(cfg Config, sources []Source) (*Result, error) {
	return RunContext(context.Background(), cfg, sources)
}

// RunContext is Run with cancellation: the context is checked at every
// stage boundary (and between parses), and a cancelled or expired
// context aborts the pipeline with ctx.Err(). Cancellation granularity
// is the stage — a long Constrain or Solve runs to completion before the
// deadline is noticed — which keeps every stage's determinism guarantees
// intact.
func RunContext(ctx context.Context, cfg Config, sources []Source) (*Result, error) {
	if len(sources) == 0 {
		return nil, errors.New("driver: no input sources")
	}
	fe, err := cfg.frontEnd()
	if err != nil {
		return nil, err
	}
	if err := fe.Check(cfg); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	tr := obs.FromContext(ctx)
	run := tr.Start("driver", "driver.run",
		obs.String("mode", cfg.Mode()),
		obs.String("analyses", strings.Join(cfg.AnalysisNames(), ",")),
		obs.Int("sources", len(sources)))
	defer run.End()

	// Load: resolve every input into file sources, collecting every
	// failure (a front end may expand one input into many files).
	sp := tr.Start("driver", "driver.load", obs.Int("sources", len(sources)))
	start := time.Now()
	files, loadErrs := fe.Load(sources)
	res.Timings.Load = time.Since(start)
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Parse: the front end parses the loaded files (concurrently if it
	// chooses); one span brackets the whole stage (per-file spans would
	// make traces scheduling-dependent).
	sp = tr.Start("driver", "driver.parse", obs.Int("files", len(files)))
	start = time.Now()
	prog, parseErrs := fe.Parse(ctx, files, loadErrs)
	res.Timings.Parse = time.Since(start)
	res.Program = prog
	if cp, ok := prog.(*CProgram); ok {
		res.Files = cp.Files
	}
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Front-end diagnostics count toward the Report stage, so the stage
	// timings sum to wall clock on the failure path too. Load and parse
	// errors interleave per file, in file order.
	start = time.Now()
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
	sp := tr.Start("driver", "driver.build")
	start := time.Now()
	suite, diags, err := buildSuite(cfg)
	res.Diagnostics = append(res.Diagnostics, diags...)
	if err != nil {
		sp.End()
		return err
	}
	if suite == nil {
		// Prelude failures are front-end-style errors: reported as
		// diagnostics, no analysis runs, Report stays nil.
		res.Timings.Build = time.Since(start)
		sp.End()
		return nil
	}
	a := res.Program.NewEngine(cfg, suite)
	if ca, ok := a.(*constinfer.Analysis); ok {
		res.Analysis = ca
	}

	a.Prepare()
	res.Timings.Build = time.Since(start)
	sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	sp = tr.Start("driver", "driver.constrain")
	start = time.Now()
	a.ConstrainContext(ctx, cfg.Jobs)
	res.Timings.Constrain = time.Since(start)
	sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	sp = tr.Start("driver", "driver.solve")
	start = time.Now()
	conflicts := a.SolveSystemContext(ctx)
	res.Timings.Solve = time.Since(start)
	res.Solver = a.SolveStats()
	sp.SetAttr(obs.Int("vars", res.Solver.Vars),
		obs.Int("constraints", res.Solver.Constraints),
		obs.Int("mask_classes", res.Solver.MaskClasses),
		obs.Int("conflicts", len(conflicts)))
	sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	sp = tr.Start("driver", "driver.classify")
	start = time.Now()
	res.Report = a.Classify(conflicts)
	res.Timings.Classify = time.Since(start)
	sp.End()

	// Report: conflict diagnostics (each with its blame-path flow trace)
	// and the optional initialization check. Timed as its own stage so
	// the stage timings sum to wall clock for every caller.
	sp = tr.Start("driver", "driver.report", obs.Int("conflicts", len(conflicts)))
	start = time.Now()
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
	res.Timings.Report += time.Since(start)
	sp.End()
	return nil
}

// buildSuite resolves the config's analysis names and preludes into a
// bound suite. Unknown analysis names are invalid invocations (error);
// prelude problems are input problems reported as diagnostics with a nil
// suite. A prelude-wanting analysis running without one gets an advisory
// warning alongside a non-nil suite.
func buildSuite(cfg Config) (*analysis.Suite, []Diagnostic, error) {
	names := cfg.AnalysisNames()
	for _, n := range names {
		if _, ok := analysis.Lookup(n); !ok {
			return nil, nil, fmt.Errorf("driver: unknown analysis %q (registered: %s)",
				n, strings.Join(analysis.Names(), ", "))
		}
	}
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
		return nil, diags, nil
	}
	suite, err := analysis.NewSuite(names, preludes)
	if err != nil {
		return nil, []Diagnostic{preludeDiagnostic("", err)}, nil
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
	return suite, diags, nil
}
