package driver

import (
	"encoding/json"
)

// The JSON report schema is stable output for tooling; field names are
// part of the contract, so the marshal types are explicit rather than
// derived from the internal structs.

type jsonOutput struct {
	Files []string `json:"files"`
	// Lang is present only for non-C front ends, so C output is
	// byte-identical to earlier schema versions.
	Lang        string           `json:"lang,omitempty"`
	Mode        string           `json:"mode"`
	Analyses    []string         `json:"analyses"`
	Summary     *jsonSummary     `json:"summary,omitempty"`
	Positions   []jsonPosition   `json:"positions,omitempty"`
	Suggestions []jsonSuggestion `json:"suggestions,omitempty"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Timings     jsonTimings      `json:"timings"`
	Solver      *jsonSolver      `json:"solver,omitempty"`
}

type jsonSummary struct {
	Functions   int `json:"functions"`
	SCCs        int `json:"sccs"`
	Total       int `json:"total_positions"`
	Declared    int `json:"declared_const"`
	Inferred    int `json:"inferrable_const"`
	NeverConst  int `json:"never_const"`
	Constraints int `json:"constraints"`
	Vars        int `json:"vars"`
	Conflicts   int `json:"conflicts"`
}

type jsonPosition struct {
	Func     string `json:"func"`
	Param    string `json:"param,omitempty"`
	Index    int    `json:"index"`
	Depth    int    `json:"depth"`
	Declared bool   `json:"declared"`
	Verdict  string `json:"verdict"`
	Pos      string `json:"pos"`
}

type jsonSuggestion struct {
	Func  string `json:"func"`
	Pos   string `json:"pos"`
	Old   string `json:"old"`
	New   string `json:"new"`
	Added int    `json:"added"`
}

type jsonDiagnostic struct {
	Pos      string     `json:"pos,omitempty"`
	Severity string     `json:"severity"`
	Stage    string     `json:"stage"`
	Code     string     `json:"code"`
	Analysis string     `json:"analysis,omitempty"`
	Message  string     `json:"message"`
	Flow     []jsonFlow `json:"flow,omitempty"`
}

type jsonFlow struct {
	Pos  string `json:"pos,omitempty"`
	Note string `json:"note"`
}

// jsonSolver mirrors constraint.SolveStats: the final system's size and
// the compression the solver's cycle condensation achieved on it.
type jsonSolver struct {
	Vars          int `json:"vars"`
	Constraints   int `json:"constraints"`
	Components    int `json:"components"`
	SCCsCollapsed int `json:"sccs_collapsed"`
	VarsCollapsed int `json:"vars_collapsed"`
	EdgesDropped  int `json:"edges_dropped"`
	MaskClasses   int `json:"mask_classes"`
}

type jsonTimings struct {
	LoadMS      float64 `json:"load_ms"`
	ParseMS     float64 `json:"parse_ms"`
	BuildMS     float64 `json:"build_ms"`
	ConstrainMS float64 `json:"constrain_ms"`
	SolveMS     float64 `json:"solve_ms"`
	ClassifyMS  float64 `json:"classify_ms"`
	ReportMS    float64 `json:"report_ms"`
	EvalMS      float64 `json:"eval_ms"`
	// AnalysisMS is Build+Constrain+Solve+Classify — the paper's
	// Mono/Poly analysis-time column, precomputed so the experiment
	// harness and the server share one schema.
	AnalysisMS float64 `json:"analysis_ms"`
}

// Mode names the inference mode of a config.
func (c Config) Mode() string {
	switch {
	case c.Options.PolyRec:
		return "polymorphic-recursive"
	case c.Options.Poly:
		return "polymorphic"
	default:
		return "monomorphic"
	}
}

// JSON renders the report and diagnostics as indented, machine-readable
// JSON with a stable schema.
func (r *Result) JSON() ([]byte, error) {
	out := jsonOutput{
		Mode:        r.Config.Mode(),
		Analyses:    r.Config.AnalysisNames(),
		Diagnostics: []jsonDiagnostic{},
	}
	if lang := r.Config.Lang; lang != "" && lang != "c" {
		out.Lang = lang
	}
	for _, f := range r.Files {
		if f != nil {
			out.Files = append(out.Files, f.Name)
		}
	}
	if out.Files == nil && r.Program != nil {
		out.Files = r.Program.FileNames()
	}
	if rep := r.Report; rep != nil {
		out.Summary = &jsonSummary{
			Functions:   rep.Functions,
			SCCs:        rep.SCCs,
			Total:       rep.Total,
			Declared:    rep.Declared,
			Inferred:    rep.Inferred,
			NeverConst:  rep.Total - rep.Inferred,
			Constraints: rep.Constraints,
			Vars:        rep.Vars,
			Conflicts:   len(rep.Conflicts),
		}
		for _, p := range rep.Positions {
			out.Positions = append(out.Positions, jsonPosition{
				Func: p.Func, Param: p.Param, Index: p.Index, Depth: p.Depth,
				Declared: p.Declared, Verdict: p.Verdict.String(), Pos: p.Pos.String(),
			})
		}
		for _, s := range rep.Suggested {
			out.Suggestions = append(out.Suggestions, jsonSuggestion{
				Func: s.Func, Pos: s.Pos.String(), Old: s.Old, New: s.New, Added: s.Added,
			})
		}
	}
	for _, d := range r.Diagnostics {
		jd := jsonDiagnostic{
			Pos:      d.Pos,
			Severity: d.Severity.String(),
			Stage:    d.Stage.String(),
			Code:     d.Code,
			Analysis: d.Analysis,
			Message:  d.Message,
		}
		for _, f := range d.Flow {
			jd.Flow = append(jd.Flow, jsonFlow{Pos: f.Pos, Note: f.Note})
		}
		out.Diagnostics = append(out.Diagnostics, jd)
	}
	t := r.Timings
	out.Timings = jsonTimings{
		LoadMS:      ms(t.Load),
		ParseMS:     ms(t.Parse),
		BuildMS:     ms(t.Build),
		ConstrainMS: ms(t.Constrain),
		SolveMS:     ms(t.Solve),
		ClassifyMS:  ms(t.Classify),
		ReportMS:    ms(t.Report),
		EvalMS:      ms(t.Eval),
		AnalysisMS:  ms(t.Analysis()),
	}
	if r.Report != nil { // the Solve stage ran
		out.Solver = &jsonSolver{
			Vars:          r.Solver.Vars,
			Constraints:   r.Solver.Constraints,
			Components:    r.Solver.Components,
			SCCsCollapsed: r.Solver.SCCsCollapsed,
			VarsCollapsed: r.Solver.VarsCollapsed,
			EdgesDropped:  r.Solver.EdgesDropped,
			MaskClasses:   r.Solver.MaskClasses,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

func ms(d interface{ Seconds() float64 }) float64 {
	return d.Seconds() * 1000
}
