package driver

// The reference encoder of the JSON report: mirror structs marshalled
// by encoding/json. (*Result).JSON writes the same bytes by hand;
// TestReportJSONMatchesReference and FuzzReportJSON hold it to this
// rendering.

import (
	"encoding/json"
	"time"
)

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

// jsonSolver mirrors constraint.SolveStats: the final system's size.
type jsonSolver struct {
	Vars        int `json:"vars"`
	Constraints int `json:"constraints"`
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

// refJSON is the encoding/json rendering of the report that
// (*Result).JSON must match byte for byte.
func refJSON(r *Result) ([]byte, error) {
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
		LoadMS:      refMS(t.Load),
		ParseMS:     refMS(t.Parse),
		BuildMS:     refMS(t.Build),
		ConstrainMS: refMS(t.Constrain),
		SolveMS:     refMS(t.Solve),
		ClassifyMS:  refMS(t.Classify),
		ReportMS:    refMS(t.Report),
		EvalMS:      refMS(t.Eval),
		AnalysisMS:  refMS(t.Analysis()),
	}
	if r.Report != nil { // the Solve stage ran
		out.Solver = &jsonSolver{Vars: r.Solver.Vars, Constraints: r.Solver.Constraints}
	}
	return json.MarshalIndent(out, "", "  ")
}

func refMS(d time.Duration) float64 {
	return d.Seconds() * 1000
}
