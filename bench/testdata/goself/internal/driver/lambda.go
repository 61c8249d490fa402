package driver

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/lambda"
	"repro/internal/obs"
	"repro/internal/qtype"
)

// LambdaConfig selects the qualifier system and mode for the example-
// language pipeline (the paper's Sections 2–3 calculus).
type LambdaConfig struct {
	// Spec is the qualifier system (const, nonzero, figure2, ...).
	Spec *core.Spec
	// Monomorphic disables qualifier polymorphism, the paper's
	// C-type-system baseline.
	Monomorphic bool
	// Eval additionally runs the program under the Figure-5 semantics
	// when checking succeeds.
	Eval bool
}

// LambdaResult is the outcome of a lambda pipeline run. The stages are
// Parse → Constrain (type inference) → Solve → optional Eval; failures
// appear as Diagnostics stage by stage.
type LambdaResult struct {
	Config LambdaConfig
	// Expr is the parsed program; nil on parse failure.
	Expr lambda.Expr
	// Type is the inferred qualified type; nil on parse or type error.
	Type *qtype.QType
	// Checker exposes the solved system for callers rendering solved
	// types (FormatSolved); nil until inference ran.
	Checker *infer.Checker
	// Value is the evaluation result when Eval was requested and
	// checking succeeded.
	Value *eval.TQVal
	// Diagnostics collects parse errors, type errors, qualifier
	// conflicts, and runtime errors.
	Diagnostics []Diagnostic
	// Timings records per-stage wall-clock times.
	Timings Timings
}

// HasErrors reports whether any diagnostic is an error.
func (r *LambdaResult) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns the error diagnostics.
func (r *LambdaResult) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// RunLambda runs one program of the example language through the staged
// pipeline.
func RunLambda(cfg LambdaConfig, file, src string) *LambdaResult {
	return RunLambdaContext(context.Background(), cfg, file, src)
}

// RunLambdaContext is RunLambda with a context: a tracer installed via
// obs.WithTracer records one span per stage.
func RunLambdaContext(ctx context.Context, cfg LambdaConfig, file, src string) *LambdaResult {
	tr := obs.FromContext(ctx)
	res := &LambdaResult{Config: cfg}

	run := tr.Start("driver", "lambda.run", obs.String("file", file))
	defer run.End()

	sp := tr.Start("driver", "lambda.parse")
	start := time.Now()
	e, err := lambda.Parse(file, src)
	res.Timings.Parse = time.Since(start)
	sp.End()
	if err != nil {
		res.Diagnostics = append(res.Diagnostics, parseDiagnostic(file, err))
		return res
	}
	res.Expr = e

	checker := cfg.Spec.NewChecker()
	checker.Monomorphic = cfg.Monomorphic
	res.Checker = checker

	sp = tr.Start("driver", "lambda.constrain")
	start = time.Now()
	qt, err := checker.Infer(nil, e)
	res.Timings.Constrain = time.Since(start)
	sp.End()
	if err != nil {
		res.Diagnostics = append(res.Diagnostics, typeErrorDiagnostic(err))
		return res
	}

	sp = tr.Start("driver", "lambda.solve")
	start = time.Now()
	conflicts := checker.Sys.SolveContext(ctx)
	res.Timings.Solve = time.Since(start)
	sp.End()
	res.Type = qt
	for _, u := range conflicts {
		res.Diagnostics = append(res.Diagnostics, conflictDiagnostic(cfg.Spec.Set, nil, u))
	}

	if cfg.Eval && !res.HasErrors() {
		sp = tr.Start("driver", "lambda.eval")
		start = time.Now()
		v, err := eval.Run(cfg.Spec.Set, eval.LitQual(cfg.Spec.Rules.LitQual), e, 0)
		res.Timings.Eval = time.Since(start)
		sp.End()
		if err != nil {
			res.Diagnostics = append(res.Diagnostics, evalDiagnostic(err))
		} else {
			res.Value = v
		}
	}
	return res
}
