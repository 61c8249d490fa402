package main

// Known answers. Every report the benchmark receives is checked against
// an answer that does not come from the run under test:
//
//   - a generated C program's monomorphic const verdicts follow from the
//     generator's shapes, read off the program text (cWant);
//   - the frozen go-self snapshot's report summary is pinned (goPins);
//   - the Go fd-state program's conflicts are its hand-written expected
//     output (goFD.want);
//   - a daemon session report must equal a cold analysis of the same
//     sources (normalReport), and a result-cache hit must be
//     byte-identical to the miss that filled the entry.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// report is the part of the cqual -json schema the checks read.
type report struct {
	Summary *struct {
		Functions   int `json:"functions"`
		Total       int `json:"total_positions"`
		Declared    int `json:"declared_const"`
		Inferred    int `json:"inferrable_const"`
		NeverConst  int `json:"never_const"`
		Constraints int `json:"constraints"`
		Vars        int `json:"vars"`
		Conflicts   int `json:"conflicts"`
	} `json:"summary"`
	Positions []struct {
		Func     string `json:"func"`
		Param    string `json:"param"`
		Depth    int    `json:"depth"`
		Declared bool   `json:"declared"`
		Verdict  string `json:"verdict"`
	} `json:"positions"`
	Diagnostics []struct {
		Pos      string `json:"pos"`
		Severity string `json:"severity"`
		Code     string `json:"code"`
		Message  string `json:"message"`
	} `json:"diagnostics"`
}

func parseReport(data []byte) (*report, error) {
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: %v", err)
	}
	if r.Summary == nil {
		return nil, fmt.Errorf("report has no summary (front end failed?)")
	}
	return &r, nil
}

// errorDiagnostics lists the error diagnostics as "pos: message".
func (r *report) errorDiagnostics() []string {
	var out []string
	for _, d := range r.Diagnostics {
		if d.Severity == "error" {
			out = append(out, d.Pos+": "+d.Message)
		}
	}
	return out
}

// posKey names one const position: a pointer level of a defined
// function's parameter, or of its result when param is empty.
type posKey struct {
	fn, param string
	depth     int
}

type posWant struct {
	verdict  string
	declared bool
}

var (
	funcHead = regexp.MustCompile(`(?m)^(?:static )?[a-z]+ (\**)(\w+)\((.*)\) \{$`)
	chopHead = regexp.MustCompile(`(?m)^static void chop(\d+)\(`)
	nameID   = regexp.MustCompile(`^(skipws|count)(\d+)$`)
)

// cWant derives, from a generated program's text, the verdict the
// monomorphic const inference must give each position of each defined
// function (Section 4.2 of the paper on the generator's shapes):
//
//   - a parameter declared const is must-const;
//   - writers, chop and rec_set write through their parameter: not-const;
//   - skipws is the strchr pattern, a flow-through helper; where its
//     group also has chop, the monomorphic system fuses chop's write into
//     skipws and into count, its reader client: both not-const;
//   - every other position (readers, walkers, hubs, chains, main's argv)
//     is only read: either.
func cWant(text string) map[posKey]posWant {
	mixed := map[string]bool{}
	for _, m := range chopHead.FindAllStringSubmatch(text, -1) {
		mixed[m[1]] = true
	}
	want := map[posKey]posWant{}
	for _, m := range funcHead.FindAllStringSubmatch(text, -1) {
		fn := m[2]
		forced := strings.HasPrefix(fn, "wr") || strings.HasPrefix(fn, "chop")
		if id := nameID.FindStringSubmatch(fn); id != nil && mixed[id[2]] {
			forced = true
		}
		verdict := func(declared bool, param string) posWant {
			switch {
			case declared:
				return posWant{"must-const", true}
			case forced, strings.HasPrefix(fn, "rec_set") && param == "rp":
				return posWant{"not-const", false}
			}
			return posWant{"either", false}
		}
		for d := range len(m[1]) {
			want[posKey{fn, "", d}] = verdict(false, "")
		}
		for _, p := range strings.Split(m[3], ", ") {
			stars := strings.Count(p, "*")
			name := p[strings.LastIndexAny(p, " *")+1:]
			for d := range stars {
				want[posKey{fn, name, d}] = verdict(d == 0 && strings.HasPrefix(p, "const "), name)
			}
		}
	}
	return want
}

// checkC checks a monomorphic const report of a generated program
// against cWant: every position present with its verdict, the summary
// counts that follow from them, and no conflict.
func checkC(want map[posKey]posWant) func([]byte) error {
	var total, declared, inferred int
	for _, w := range want {
		total++
		if w.declared {
			declared++
		}
		if w.verdict != "not-const" {
			inferred++
		}
	}
	return func(data []byte) error {
		r, err := parseReport(data)
		if err != nil {
			return err
		}
		if errs := r.errorDiagnostics(); len(errs) > 0 {
			return fmt.Errorf("%d error diagnostic(s), first: %s", len(errs), errs[0])
		}
		s := r.Summary
		if s.Conflicts != 0 || s.Total != total || s.Declared != declared || s.Inferred != inferred || s.NeverConst != total-inferred {
			return fmt.Errorf("summary total/declared/inferrable/never/conflicts = %d/%d/%d/%d/%d, want %d/%d/%d/%d/0",
				s.Total, s.Declared, s.Inferred, s.NeverConst, s.Conflicts, total, declared, inferred, total-inferred)
		}
		if len(r.Positions) != len(want) {
			return fmt.Errorf("%d positions, want %d", len(r.Positions), len(want))
		}
		for _, p := range r.Positions {
			w, ok := want[posKey{p.Func, p.Param, p.Depth}]
			if !ok || w.verdict != p.Verdict || w.declared != p.Declared {
				return fmt.Errorf("position %s.%s depth %d: %s declared=%t, want %+v (known=%t)",
					p.Func, p.Param, p.Depth, p.Verdict, p.Declared, w, ok)
			}
		}
		return nil
	}
}

// goPins is the pinned report summary of a Go corpus.
type goPins struct {
	Functions, Positions, Inferrable, NeverConst, Constraints, Vars, Conflicts int
}

// goSelfPins is the const report of the whole frozen snapshot;
// goQualPins that of its internal/qual package alone.
var (
	goSelfPins = goPins{Functions: 930, Positions: 1476, Inferrable: 981, NeverConst: 495, Constraints: 31316, Vars: 36495}
	goQualPins = goPins{Functions: 38, Positions: 40, Inferrable: 38, NeverConst: 2, Constraints: 500, Vars: 652}
)

func checkGoPins(p goPins) func([]byte) error {
	return func(data []byte) error {
		r, err := parseReport(data)
		if err != nil {
			return err
		}
		if errs := r.errorDiagnostics(); len(errs) > 0 {
			return fmt.Errorf("%d error diagnostic(s), first: %s", len(errs), errs[0])
		}
		s := r.Summary
		got := goPins{s.Functions, s.Total, s.Inferred, s.NeverConst, s.Constraints, s.Vars, s.Conflicts}
		if got != p {
			return fmt.Errorf("summary %+v, want %+v", got, p)
		}
		return nil
	}
}

// checkGoFD checks an fd-state report of the Go program: exactly the
// expected conflicts, at the expected positions of path.
func checkGoFD(g goFD, path string) func([]byte) error {
	want := append([]string(nil), g.want...)
	sort.Strings(want)
	return func(data []byte) error {
		r, err := parseReport(data)
		if err != nil {
			return err
		}
		var got []string
		for _, d := range r.Diagnostics {
			if d.Severity == "error" {
				if d.Code != "qualifier-conflict" {
					return fmt.Errorf("unexpected error diagnostic %s: %s", d.Pos, d.Message)
				}
				got = append(got, strings.TrimPrefix(d.Pos, path+":"))
			}
		}
		sort.Strings(got)
		if r.Summary.Conflicts != len(want) || strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("%d conflicts at %v, want %v", r.Summary.Conflicts, got, want)
		}
		return nil
	}
}

// normalReport hashes a report with its run-dependent parts removed: the
// stage timings, the solver's parallel-execution counters and the delta
// session block. Two reports of the same sources and mode hash equal
// whether they were solved cold or through a retained session.
func normalReport(data []byte) ([32]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return [32]byte{}, fmt.Errorf("report: %v", err)
	}
	delete(m, "timings")
	if s, ok := m["solver"].(map[string]any); ok {
		delete(s, "parallel")
		delete(s, "delta")
	}
	b, err := json.Marshal(m)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// checkSame checks that a report normalizes to want.
func checkSame(want [32]byte) func([]byte) error {
	return func(data []byte) error {
		got, err := normalReport(data)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("report differs from a cold analysis of the same sources")
		}
		return nil
	}
}
