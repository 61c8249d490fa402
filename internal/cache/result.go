package cache

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/driver"
)

// Key is the content address of one analysis request: a hash of the
// source texts and the analysis configuration.
type Key [sha256.Size]byte

// langKey normalizes the config's front-end language for hashing: the
// empty string and "c" are the same front end and must key identically.
func langKey(cfg driver.Config) string {
	if cfg.Lang == "" {
		return "c"
	}
	return cfg.Lang
}

// RequestKey derives the result-cache key for an analysis request. It
// hashes the front-end language, the inference mode (poly), the uninit
// flag, the selected analyses, every prelude's path and text, and
// every source's path and text, all length-prefixed so concatenations
// cannot collide. Sources must carry their text: a path-only source
// would key on the name rather than the content. cfg.Jobs, cfg.SolveJobs
// and cfg.Summaries are deliberately excluded — they have no effect on
// the report — and so are cfg.Options.PolyRec, which fails the run, and
// cfg.Options.Simplify, which is ignored.
func RequestKey(cfg driver.Config, sources []driver.Source) Key {
	h := sha256.New()
	fmt.Fprintf(h, "lang:%s;", langKey(cfg))
	fmt.Fprintf(h, "cfg:%t,%t;", cfg.Options.Poly, cfg.Uninit)
	for _, a := range cfg.AnalysisNames() {
		fmt.Fprintf(h, "an:%d:%s;", len(a), a)
	}
	for _, p := range cfg.Preludes {
		fmt.Fprintf(h, "pre:%d:%s%d:%s", len(p.Path), p.Path, len(p.Text), p.Text)
	}
	for _, s := range sources {
		fmt.Fprintf(h, "src:%d:%s%d:%s", len(s.Path), s.Path, len(s.Text), s.Text)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// ResultCache memoizes finished analysis reports (the rendered JSON
// bytes) by request key. Because the pipeline is deterministic, serving
// the stored bytes is byte-identical to re-running the analysis. Safe
// for concurrent use.
type ResultCache struct {
	lru *lru[Key, []byte]
}

// NewResultCache builds a result cache bounded by entry count and total
// stored bytes; a zero bound means unbounded in that dimension.
func NewResultCache(maxEntries int, maxBytes int64) *ResultCache {
	return &ResultCache{lru: newLRU[Key, []byte](maxEntries, maxBytes)}
}

// OnEvict registers a hook observing every evicted request key. The
// hook fires outside the cache lock. Register once, at startup, before
// traffic.
func (c *ResultCache) OnEvict(fn func(k Key)) { c.lru.onEvict = fn }

// Get returns the stored report for the key. The returned slice is
// shared and must not be modified.
func (c *ResultCache) Get(k Key) ([]byte, bool) { return c.lru.get(k) }

// Put stores a finished report under its request key.
func (c *ResultCache) Put(k Key, report []byte) {
	c.lru.put(k, report, int64(len(report)))
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() Stats { return c.lru.stats() }
