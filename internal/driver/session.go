package driver

// Retained analysis sessions. A Session is one corpus's serialized run
// loop: each RunDelta re-runs the whole pipeline, cold, over the
// current sources, and leaves a lock-free snapshot of the run for
// introspection. Nothing carries over from one run to the next; the
// session only serializes one corpus's runs and names them.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
)

// Session runs the pipeline over successive versions of one program.
// The zero value is not usable; call NewSession. A Session is safe for
// concurrent RunDelta calls (they serialize).
type Session struct {
	cfg Config

	mu sync.Mutex

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

// RunDelta executes the pipeline over the sources, exactly as
// RunContext does, and records the run's snapshot.
func (s *Session) RunDelta(ctx context.Context, sources []Source) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := RunContext(ctx, s.cfg, sources)
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
	}
	s.snap.Store(&snap)
	return res, err
}

// Snapshot returns the last completed run's introspection view without
// taking the session lock; nil before the first RunDelta completes.
func (s *Session) Snapshot() *SessionSnapshot { return s.snap.Load() }
