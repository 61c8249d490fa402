package cache

import "repro/internal/constinfer"

// SummaryStore is the bounded LRU implementation of
// constinfer.SummaryCache: per-function constraint summaries keyed by
// content address (prepare fingerprint + function AST fingerprint). A
// resident server shares one store across every request, so analyzing a
// program in which one function changed replays every other function's
// fragment from here. Safe for concurrent use; stored summaries are
// immutable and may be read by many analyses at once.
type SummaryStore struct {
	lru *lru[constinfer.SummaryKey, *constinfer.BodySummary]
}

// NewSummaryStore builds a summary store bounded by entry count and
// (approximate) total bytes; a zero bound means unbounded in that
// dimension.
func NewSummaryStore(maxEntries int, maxBytes int64) *SummaryStore {
	return &SummaryStore{lru: newLRU[constinfer.SummaryKey, *constinfer.BodySummary](maxEntries, maxBytes)}
}

// GetSummary implements constinfer.SummaryCache.
func (s *SummaryStore) GetSummary(k constinfer.SummaryKey) (*constinfer.BodySummary, bool) {
	return s.lru.get(k)
}

// PutSummary implements constinfer.SummaryCache.
func (s *SummaryStore) PutSummary(k constinfer.SummaryKey, b *constinfer.BodySummary) {
	s.lru.put(k, b, b.ApproxBytes())
}

// Stats snapshots the store counters.
func (s *SummaryStore) Stats() Stats { return s.lru.stats() }
