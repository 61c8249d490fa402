package driver

import "testing"

// TestBaselineKeyIgnoresSuppressedCount: a package's "N more type errors
// suppressed" finding keys the same whatever N is, while two different
// messages, or the summaries of two packages, keep distinct keys.
func TestBaselineKeyIgnoresSuppressedCount(t *testing.T) {
	finding := func(pos, msg string) Finding {
		return Finding{Rule: "go-type-error", Pos: pos, Severity: "error", Message: msg}
	}
	pkg := `package "repro/internal/gofront": `
	thirteen := finding("internal/gofront/call.go:10:2", pkg+"13 more type errors suppressed")
	seventeen := finding("internal/gofront/call.go:41:7", pkg+"17 more type errors suppressed")
	if baselineKey(thirteen) != baselineKey(seventeen) {
		t.Errorf("suppressed-count findings key apart:\n%q\n%q", baselineKey(thirteen), baselineKey(seventeen))
	}
	other := finding("internal/gofront/call.go:10:2", `package "repro/internal/infer": 13 more type errors suppressed`)
	if baselineKey(thirteen) == baselineKey(other) {
		t.Error("the summaries of two packages share a key")
	}
	a := finding("internal/gofront/call.go:10:2", "cannot use x (variable of type int) as string value")
	b := finding("internal/gofront/call.go:10:2", "cannot use y (variable of type int) as string value")
	if baselineKey(a) == baselineKey(b) {
		t.Error("two different type errors share a key")
	}
	// Only a count is dropped: a message that merely ends like the
	// summary keeps its words.
	odd := finding("x.go:1:1", "several more type errors suppressed")
	if baselineKey(odd) == baselineKey(finding("x.go:1:1", "N more type errors suppressed")) {
		t.Error("a non-numeric word before the suffix was dropped")
	}
}
