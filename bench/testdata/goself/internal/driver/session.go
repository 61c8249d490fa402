package driver

// Retained analysis sessions: the delta re-solve engine's front door at
// the pipeline level.
//
// A Session pairs one Config with one constraint.Session and re-runs
// the full pipeline on each RunDelta call. The front end (Load, Parse,
// Build, Constrain) always runs — it is what re-derives the constraint
// system and its fragment spans for the edited sources — while the
// Solve stage hands the fresh system to the retained session, which
// re-solves only the region downstream of changed fragments (or falls
// back to a cold solve; results are byte-identical either way, held to
// that by the delta oracle in internal/constraint).
//
// Fragments are content-addressed (see constinfer.FragmentSpans), so
// the session needs no notion of which files changed: whatever the
// edit, unchanged fragments re-derive unchanged keys and are reused.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
)

// Session retains solver state between pipeline runs over successive
// versions of the same program. The zero value is not usable; call
// NewSession. A Session is safe for concurrent RunDelta calls (they
// serialize), but one session must only ever see versions of one
// logical program — feeding it unrelated programs is correct yet
// defeats the reuse.
type Session struct {
	cfg Config

	mu sync.Mutex
	ss *constraint.Session // created on first RunDelta, once the suite exists

	// snap is the latest SessionSnapshot, maintained at the end of each
	// RunDelta. It is read lock-free by introspection (/v1/introspect):
	// RunDelta holds mu for the whole pipeline run, so any reader that
	// took the lock would stall behind an in-flight analysis.
	snap atomic.Pointer[SessionSnapshot]
}

// SessionSnapshot is the lock-free introspection view of a session:
// what its last completed run did. Fields are value copies — safe to
// serialize while the next run is in flight.
type SessionSnapshot struct {
	// Runs counts completed RunDelta calls, including failed ones.
	Runs uint64 `json:"runs"`
	// Sources is the number of sources in the last run.
	Sources int `json:"sources"`
	// Diagnostics is the last run's diagnostic count.
	Diagnostics int `json:"diagnostics"`
	// Solver is the last run's solve statistics.
	Solver constraint.SolveStats `json:"solver"`
	// Delta describes what the retained state did for the last solve.
	Delta constraint.DeltaStats `json:"delta"`
	// Err is the last run's pipeline error, if any.
	Err string `json:"err,omitempty"`
}

// NewSession creates a retained analysis session for the config. The
// config is fixed for the session's lifetime: mode, analyses, and
// preludes all shape the constraint system, so changing them means a
// new session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg}
}

// Config returns the session's pipeline configuration.
func (s *Session) Config() Config { return s.cfg }

// RunDelta executes the pipeline over the sources with the Solve stage
// routed through the session's retained state. The Result is identical
// to RunContext's — diagnostics, positions, stats, everything — with
// Result.Delta additionally describing the fragment diff and dirty
// region (or the fallback reason). Front-end failures leave the
// retained state untouched.
func (s *Session) RunDelta(ctx context.Context, sources []Source) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := runPipeline(ctx, s.cfg, sources, s)
	snap := SessionSnapshot{Sources: len(sources)}
	if prev := s.snap.Load(); prev != nil {
		snap.Runs = prev.Runs
	}
	snap.Runs++
	if err != nil {
		snap.Err = err.Error()
	}
	if res != nil {
		snap.Diagnostics = len(res.Diagnostics)
		snap.Solver = res.Solver
		if res.Delta != nil {
			snap.Delta = *res.Delta
		}
	}
	s.snap.Store(&snap)
	return res, err
}

// Snapshot returns the last completed run's introspection view without
// taking the session lock; nil before the first RunDelta completes.
func (s *Session) Snapshot() *SessionSnapshot { return s.snap.Load() }

// Delta reports what the session's last solve did; the zero value
// before any solve has happened.
func (s *Session) Delta() constraint.DeltaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ss == nil {
		return constraint.DeltaStats{}
	}
	return s.ss.Delta()
}
