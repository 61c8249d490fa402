// Lint findings: the vet-shaped view of a Result. Where the default
// report is organized around the paper's experiment (counts of const
// positions, solver statistics), lint mode reduces a run to a flat,
// stable list of findings — one per diagnostic, each with a machine-
// readable rule id — so the tool slots into editor integrations and CI
// gates the way go vet does. A committed baseline file turns the gate
// incremental: existing findings are suppressed, new ones fail.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Finding is one lint finding. The JSON field names are the stable
// `-lint -json` schema (and the baseline file schema — a baseline is
// simply a previous run's findings array).
type Finding struct {
	// Rule is the stable rule id: "<analysis>-conflict" for qualifier
	// conflicts, the diagnostic code otherwise ("syntax-error",
	// "maybe-uninitialized", ...).
	Rule string `json:"rule"`
	// Pos is "file:line:col" (possibly just a file, possibly empty).
	Pos string `json:"pos,omitempty"`
	// Analysis names the owning qualifier analysis, if any.
	Analysis string `json:"analysis,omitempty"`
	// Severity is "error" or "warning".
	Severity string `json:"severity"`
	// Message is the one-line description.
	Message string `json:"message"`
	// Flow is the qualifier flow trace of a conflict, source first.
	Flow []lintFlow `json:"flow,omitempty"`
}

type lintFlow struct {
	Pos  string `json:"pos,omitempty"`
	Note string `json:"note"`
}

// RuleID derives the stable rule id of a diagnostic.
func RuleID(d Diagnostic) string {
	if d.Code == "qualifier-conflict" && d.Analysis != "" {
		return d.Analysis + "-conflict"
	}
	return d.Code
}

// Findings flattens a Result's diagnostics into lint findings, in
// diagnostic order (stage order, then the deterministic solver order).
func Findings(res *Result) []Finding {
	var out []Finding
	for _, d := range res.Diagnostics {
		f := Finding{
			Rule:     RuleID(d),
			Pos:      d.Pos,
			Analysis: d.Analysis,
			Severity: d.Severity.String(),
			Message:  d.Message,
		}
		for _, step := range d.Flow {
			f.Flow = append(f.Flow, lintFlow{Pos: step.Pos, Note: step.Note})
		}
		out = append(out, f)
	}
	return out
}

// String renders the finding in the vet-conventional
// "file:line:col: analysis: message" form (the rule id stands in for
// findings with no owning analysis).
func (f Finding) String() string {
	label := f.Analysis
	if label == "" {
		label = f.Rule
	}
	if f.Pos == "" {
		return label + ": " + f.Message
	}
	return f.Pos + ": " + label + ": " + f.Message
}

// lintJSON is the `-lint -json` (and baseline file) schema.
type lintJSON struct {
	Findings []Finding `json:"findings"`
}

// WriteLintJSON writes the findings array as JSON; `cqual -lint -json`
// output redirected to a file IS a valid baseline.
func WriteLintJSON(w io.Writer, findings []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(lintJSON{Findings: findings})
}

// Baseline is a set of previously accepted findings. Keys deliberately
// ignore line and column: adding a line above a known finding must not
// re-open it, so a finding is identified by rule + file + message.
type Baseline struct {
	keys    map[string]bool
	entries []Finding // the first finding of each key, in file order
}

// LoadBaseline reads a baseline file (the schema of `-lint -json`).
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc lintJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: malformed baseline: %v", path, err)
	}
	b := &Baseline{keys: make(map[string]bool, len(doc.Findings))}
	for _, f := range doc.Findings {
		if k := baselineKey(f); !b.keys[k] {
			b.keys[k] = true
			b.entries = append(b.entries, f)
		}
	}
	return b, nil
}

// Len reports the number of distinct baseline keys.
func (b *Baseline) Len() int { return len(b.keys) }

// New returns the findings not covered by the baseline.
func (b *Baseline) New(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !b.keys[baselineKey(f)] {
			out = append(out, f)
		}
	}
	return out
}

// Stale returns the baseline entries that none of findings matches:
// accepted findings that no longer fire. A stale entry would go on
// suppressing any later finding with the same rule, file and message.
func (b *Baseline) Stale(findings []Finding) []Finding {
	fired := make(map[string]bool, len(findings))
	for _, f := range findings {
		fired[baselineKey(f)] = true
	}
	var out []Finding
	for _, e := range b.entries {
		if !fired[baselineKey(e)] {
			out = append(out, e)
		}
	}
	return out
}

// baselineKey identifies a finding across unrelated edits: the rule,
// the file (position with line:col stripped), and the message. The
// count in a package's `N more type errors suppressed` finding is left
// out, so the summary of a package's type errors matches however many
// there are.
func baselineKey(f Finding) string {
	file := f.Pos
	if i := strings.IndexByte(file, ':'); i >= 0 {
		file = file[:i]
	}
	msg := f.Message
	if head, ok := strings.CutSuffix(msg, suppressedSuffix); ok {
		if i := strings.LastIndexByte(head, ' '); i >= 0 && isDigits(head[i+1:]) {
			msg = head[:i+1] + "N" + suppressedSuffix
		}
	}
	return f.Rule + "\x00" + file + "\x00" + msg
}

// suppressedSuffix ends the message of the finding that stands for a
// package's type errors past the first few (internal/gofront).
const suppressedSuffix = " more type errors suppressed"

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}
