package cache

// SummaryStore stores nothing: every analysis constrains cold. It, its
// constructor and its zero Stats are kept for bench/replay.go, removed
// with the next benchmark change.
type SummaryStore struct{}

// NewSummaryStore returns an empty store; the bounds are ignored.
func NewSummaryStore(maxEntries int, maxBytes int64) *SummaryStore { return &SummaryStore{} }

// Stats returns zero counters.
func (s *SummaryStore) Stats() Stats { return Stats{} }
