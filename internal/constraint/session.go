package constraint

import "repro/internal/qual"

// Session is empty: sessions solve cold. No effect; kept for
// bench/replay.go, removed with the next benchmark change.
type Session struct{}

// NewSession returns an empty Session. No effect; kept for
// bench/replay.go, removed with the next benchmark change.
func NewSession(*qual.Set) *Session { return &Session{} }

// SetSolveJobs does nothing. No effect; kept for bench/replay.go,
// removed with the next benchmark change.
func (*Session) SetSolveJobs(int) {}

// DeltaStats is never populated. No effect; kept for bench/replay.go,
// removed with the next benchmark change.
type DeltaStats struct {
	Applied   bool
	DirtyVars int
}
