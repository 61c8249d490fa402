package driver

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/constraint"
)

// reportCase is a real run whose report the writer must render as the
// reference encoder does.
type reportCase struct {
	name string
	res  *Result
}

func reportCases(t testing.TB) []reportCase {
	t.Helper()
	var cases []reportCase
	run := func(name string, cfg Config, srcs ...Source) {
		t.Helper()
		res, err := Run(cfg, srcs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, reportCase{name, res})
	}
	run("demo", Config{Uninit: true}, TextSource("demo.c", demo))
	run("demo-poly", Config{Options: constinfer.Options{Poly: true}}, TextSource("demo.c", demo))
	run("conflict", Config{}, TextSource("bad.c", `void f(const char *s) { *s = 0; }`))
	run("syntax-error", Config{}, TextSource("ok.c", demo), TextSource("bad.c", "int f( {"))
	run("taint", taintConfig(), TextSource("greet.c", taintDemo))

	taintC, err := filepath.Glob("../../examples/taint-c/*.c")
	if err != nil || len(taintC) == 0 {
		t.Fatalf("examples/taint-c: %v (%d files)", err, len(taintC))
	}
	prelude, err := os.ReadFile("../../examples/taint-c/taint.q")
	if err != nil {
		t.Fatal(err)
	}
	run("taint-c", Config{
		Options:  constinfer.Options{Poly: true},
		Analyses: []string{"const", "taint"},
		Preludes: []PreludeFile{{Path: "examples/taint-c/taint.q", Text: string(prelude)}},
	}, FileSources(taintC...)...)

	cfg := benchgen.ParallelCorpus(3000, 11)
	run("benchgen", Config{}, TextSource(cfg.Name+".c", benchgen.Generate(cfg)))
	return cases
}

// TestReportJSONMatchesReference: on real runs the hand-written report
// is byte-identical to encoding/json's, and its buffer, sized up front,
// never has to grow.
func TestReportJSONMatchesReference(t *testing.T) {
	for _, c := range reportCases(t) {
		got, err := c.res.JSON()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refJSON(c.res)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from the reference encoder\n--- got ---\n%s\n--- want ---\n%s", c.name, got, want)
		}
		if size := c.res.jsonSize(); size < len(got) || size > len(got)+len(got)/4+2048 {
			t.Errorf("%s: jsonSize %d for a %d-byte report", c.name, size, len(got))
		}
	}
}

// namesProgram is a Program that only names its files, so the fuzzer
// can reach the report's FileNames fallback with nil and empty lists.
type namesProgram []string

func (p namesProgram) FileNames() []string                      { return p }
func (p namesProgram) NewEngine(Config, *analysis.Suite) Engine { return nil }

// fuzzResult builds a Result whose every reported field comes from the
// fuzzer's strings and ints; the bits of shape pick nil, empty and
// populated variants of each optional part.
func fuzzResult(a, b, c string, n, m int, d int64, shape uint16) *Result {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	r := &Result{}
	switch shape & 3 {
	case 1:
		r.Files = []*cfront.File{nil, {Name: a}, {Name: b}}
	case 2:
		r.Files = []*cfront.File{nil}
		if bit(9) {
			r.Program = namesProgram{}
		} else {
			r.Program = namesProgram(nil)
		}
	case 3:
		r.Program = namesProgram{c, a}
	}
	if bit(2) {
		r.Config.Lang = a
	}
	r.Config.Options.Poly = bit(3)
	if bit(4) {
		r.Config.Analyses = []string{b, c}
	}
	if bit(5) {
		rep := &constinfer.Report{
			Declared: n, Inferred: m, Total: n ^ m,
			Functions: m, SCCs: n, Constraints: n + 1, Vars: m - 1,
			Conflicts: make([]*constraint.Unsat, int(shape>>12)),
		}
		if bit(6) {
			rep.Positions = []constinfer.PositionResult{
				{Position: constinfer.Position{Func: a, Param: b, Index: n, Depth: m, Declared: bit(7),
					Pos: constraint.Pos{File: c, Line: int32(n), Col: int32(m)}}, Verdict: constinfer.Verdict(n & 3)},
				{Position: constinfer.Position{Func: c, Index: -1, Depth: n,
					Pos: constraint.Pos{Line: int32(m), Col: int32(n)}}, Verdict: constinfer.Either},
			}
			rep.Suggested = []constinfer.Suggestion{
				{Func: a, Pos: constraint.Pos{File: b, Line: int32(m), Col: int32(n)}, Old: b, New: c, Added: n},
			}
		} else if bit(10) {
			rep.Positions = []constinfer.PositionResult{}
			rep.Suggested = []constinfer.Suggestion{}
		}
		r.Report = rep
		r.Solver = constraint.SolveStats{Vars: n, Constraints: m}
	}
	if bit(8) {
		r.Diagnostics = []Diagnostic{
			{Pos: a, Severity: Severity(n & 3), Stage: Stage(m & 15), Code: b, Message: c},
			{Severity: SevWarning, Stage: StageSolve, Code: c, Analysis: b, Message: a,
				Flow: []FlowStep{{Pos: c, Note: a}, {Note: b}}},
		}
	} else if bit(11) {
		r.Diagnostics = []Diagnostic{}
	}
	r.Timings = Timings{
		Load: time.Duration(d), Parse: time.Duration(n), Build: time.Duration(m),
		Constrain: time.Duration(-d), Solve: time.Nanosecond, Classify: time.Duration(d / 7),
		Report: time.Duration(n) * time.Millisecond, Eval: time.Duration(m) * time.Microsecond,
	}
	return r
}

// FuzzReportJSON: for any strings, numbers and shape, the report writer
// produces the reference encoder's bytes, and timings of any magnitude
// format as encoding/json formats a float64.
func FuzzReportJSON(f *testing.F) {
	const all = 0xffff
	f.Add("f", "s", "a.c", 0, 0, int64(0), uint16(0), 0.0)
	f.Add("<script>&", `"quoted\path"`, "tab\there\nnl\x01\x1f\x7f", 3, -1, int64(1), uint16(all), 1e-7)
	f.Add("line\u2028sep\u2029", "bad\xffutf8\xc3", "\b\f\r", -7, 12, int64(-1), uint16(0x0fff), 1e21)
	f.Add("", "", "", 1, 2, int64(123456789), uint16(0x1ff3), 12.345)
	f.Add("main", "", "x.c", 40, 2, int64(time.Second), uint16(0x0a25), 1e-6)
	f.Add("g", "p", "", math.MaxInt, math.MinInt, int64(math.MaxInt64), uint16(0x2161), -2.5e-9)
	for _, c := range reportCases(f) {
		r := c.res
		if rep := r.Report; rep != nil && len(rep.Positions) > 0 {
			p := rep.Positions[len(rep.Positions)-1]
			f.Add(p.Func, p.Param, p.Pos.File, int(p.Pos.Line), int(p.Pos.Col), int64(r.Timings.Constrain), uint16(0x0170), refMS(r.Timings.Solve))
		}
		if rep := r.Report; rep != nil && len(rep.Suggested) > 0 {
			s := rep.Suggested[0]
			f.Add(s.Func, s.Old, s.New, s.Added, int(s.Pos.Line), int64(r.Timings.Parse), uint16(0x0061), refMS(r.Timings.Parse))
		}
		for _, d := range r.Diagnostics {
			note := ""
			if len(d.Flow) > 0 {
				note = d.Flow[0].Note
			}
			f.Add(d.Message, d.Analysis, note, int(d.Severity), int(d.Stage), int64(r.Timings.Report), uint16(0x0114), refMS(r.Timings.Report))
		}
	}
	f.Fuzz(func(t *testing.T, a, b, c string, n, m int, d int64, shape uint16, x float64) {
		r := fuzzResult(a, b, c, n, m, d, shape)
		got, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refJSON(r)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("report differs from the reference encoder\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // encoding/json refuses these; no duration yields one
		}
		wantF, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if gotF := appendFloat(nil, x); !bytes.Equal(gotF, wantF) {
			t.Fatalf("appendFloat(%v) = %s, want %s", x, gotF, wantF)
		}
	})
}
