package driver

import (
	"context"
	"sync"
)

// Session runs the pipeline over successive versions of one program,
// one run at a time. Nothing carries over from one run to the next:
// each RunDelta is RunContext under the session's lock. Kept for
// bench/replay.go, removed with the next benchmark change.
type Session struct {
	cfg Config
	mu  sync.Mutex
}

// NewSession creates a session that runs the pipeline with cfg.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg}
}

// RunDelta executes the pipeline over the sources, exactly as
// RunContext does.
func (s *Session) RunDelta(ctx context.Context, sources []Source) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RunContext(ctx, s.cfg, sources)
}
