package driver

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/initcheck"
	"repro/internal/qual"
)

// Severity classifies a diagnostic.
type Severity int

// Severities.
const (
	// SevError marks diagnostics that make the run fail: unreadable or
	// unparsable input, qualifier conflicts, type errors.
	SevError Severity = iota
	// SevWarning marks advisory diagnostics, e.g. possibly-uninitialized
	// variables from the definite-initialization extension.
	SevWarning
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Stage names the pipeline stage a diagnostic originated in.
type Stage int

// Pipeline stages. StageLoad through StageSolve and StageEval are the
// stages of those names in the stages table, which String reads;
// StageInit is the definite-initialization check, whose time Timings
// charges to the report stage.
const (
	StageLoad Stage = iota
	StageParse
	StageBuild
	StageConstrain
	StageSolve
	StageInit
	StageEval
)

func (s Stage) String() string {
	switch {
	case s >= StageLoad && s <= StageSolve:
		return stages[s].name
	case s == StageInit:
		return "initcheck"
	case s == StageEval:
		return stages[len(stages)-1].name
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// FlowStep is one hop of a qualifier flow path: the constraint along
// which the conflicting qualifier travelled, with its provenance.
type FlowStep struct {
	// Pos locates the program construct that generated the constraint.
	Pos string
	// Note describes the constraint, e.g. `const ⊑ κ12 (declared const)`.
	Note string
}

// Diagnostic is the unified report shape for everything the pipeline can
// say about a program: load and parse failures, qualifier conflicts with
// their flow paths, type errors, and initialization warnings. It replaces
// the three incompatible error shapes of the underlying packages
// (constraint.Unsat, initcheck.Warning, plain parse errors).
type Diagnostic struct {
	// Pos is the source position ("file:line:col"), possibly empty.
	Pos string
	// Severity is error or warning.
	Severity Severity
	// Stage is where in the pipeline the diagnostic arose.
	Stage Stage
	// Code is a stable machine-readable kind, e.g. "qualifier-conflict".
	Code string
	// Analysis names the qualifier analysis the diagnostic belongs to
	// ("const", "taint"); empty for diagnostics that are not specific to
	// one analysis (load/parse errors, initialization warnings).
	Analysis string
	// Message is the human-readable one-line description.
	Message string
	// Flow, for qualifier conflicts, traces the constraint path from the
	// qualifier's origin to the violated bound, source first.
	Flow []FlowStep
}

// String renders the diagnostic in the conventional file:line: message
// form, with the flow path indented below.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos != "" {
		b.WriteString(d.Pos + ": ")
	}
	b.WriteString(d.Severity.String() + ": " + d.Message)
	for _, f := range d.Flow {
		b.WriteString("\n\tflow: " + f.Note)
		if f.Pos != "" {
			b.WriteString(" at " + f.Pos)
		}
	}
	return b.String()
}

// hasErrors reports whether any of ds is an error.
func hasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// errorDiagnostics returns the errors among ds.
func errorDiagnostics(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// loadDiagnostic wraps a file-read failure.
func loadDiagnostic(path string, err error) Diagnostic {
	return Diagnostic{
		Pos:      path,
		Severity: SevError,
		Stage:    StageLoad,
		Code:     "read-error",
		Message:  err.Error(),
	}
}

// parseDiagnostic wraps a syntax error from any front end. The error
// message already embeds the position, so Pos carries just the file.
func parseDiagnostic(pos string, err error) Diagnostic {
	return Diagnostic{
		Pos:      pos,
		Severity: SevError,
		Stage:    StageParse,
		Code:     "syntax-error",
		Message:  err.Error(),
	}
}

// conflictDiagnostic converts an unsatisfiable qualifier constraint,
// resolving lattice elements against the qualifier set and keeping the
// blame path as flow steps. Rendering is restricted to the violated
// constraint's component mask so a conflict in one analysis does not
// drag the other analyses' qualifiers into the message; the owning
// analysis is named from the offending components. A nil suite (lambda
// pipeline, whose qualifier sets are free-form) leaves Analysis empty.
func conflictDiagnostic(set *qual.Set, suite *analysis.Suite, u *constraint.Unsat) Diagnostic {
	owner := ""
	if suite != nil {
		owner = suite.Owner(u.Lower &^ u.Bound)
	}
	d := Diagnostic{
		Pos:      u.Con.Why.Pos.String(),
		Severity: SevError,
		Stage:    StageSolve,
		Code:     "qualifier-conflict",
		Analysis: owner,
		Message: fmt.Sprintf("qualifier %s does not fit under bound %s (%s)",
			set.DescribeMask(u.Lower, u.Con.Mask), set.DescribeMask(u.Bound, u.Con.Mask), u.Con.Why.Msg),
	}
	for _, c := range u.Path {
		d.Flow = append(d.Flow, FlowStep{
			Pos:  c.Why.Pos.String(),
			Note: fmt.Sprintf("%s ⊑ %s (%s)", c.L.FormatMask(set, c.Mask), c.R.FormatMask(set, c.Mask), c.Why.Msg),
		})
	}
	return d
}

// preludeDiagnostic wraps a prelude parse or suite-binding failure.
func preludeDiagnostic(pos string, err error) Diagnostic {
	return Diagnostic{
		Pos:      pos,
		Severity: SevError,
		Stage:    StageBuild,
		Code:     "prelude-error",
		Message:  err.Error(),
	}
}

// initDiagnostic converts a definite-initialization warning.
func initDiagnostic(w initcheck.Warning) Diagnostic {
	return Diagnostic{
		Pos:      w.Pos.String(),
		Severity: SevWarning,
		Stage:    StageInit,
		Code:     "maybe-uninitialized",
		Message:  fmt.Sprintf("variable %q may be used uninitialized in %s", w.Var, w.Func),
	}
}

// typeErrorDiagnostic wraps a structural type error from the lambda
// checker.
func typeErrorDiagnostic(err error) Diagnostic {
	return Diagnostic{
		Severity: SevError,
		Stage:    StageConstrain,
		Code:     "type-error",
		Message:  err.Error(),
	}
}

// evalDiagnostic wraps a runtime error from the Figure-5 evaluator.
func evalDiagnostic(err error) Diagnostic {
	return Diagnostic{
		Severity: SevError,
		Stage:    StageEval,
		Code:     "runtime-error",
		Message:  err.Error(),
	}
}
