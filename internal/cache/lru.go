// Package cache provides the caches behind the cquald analysis server:
// a request-level result cache keyed by source texts plus analysis
// configuration, and a store of named driver sessions. Both are bounded
// LRU maps, safe for concurrent use, with hit/miss/eviction counters
// exported for the server's /metrics endpoint.
package cache

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a cache's counters and occupancy.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// entry is one LRU node; the list is intrusive and doubly linked with a
// sentinel root (root.next = most recent, root.prev = least recent).
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// lru is a mutex-guarded LRU map bounded by entry count and/or total
// cost. A zero bound means unbounded in that dimension. The counters
// and occupancy figures are atomic so that stats() — the /metrics
// scrape path — never takes the map mutex and never contends with
// lookups.
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	items      map[K]*entry[K, V]
	root       entry[K, V] // sentinel
	bytes      atomic.Int64
	entries    atomic.Int64
	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	// onEvict, when set, observes every evicted key. It fires after the
	// map mutex is released so an observer (journal append, metrics) can
	// never deadlock back into the cache.
	onEvict func(key K)
}

func newLRU[K comparable, V any](maxEntries int, maxBytes int64) *lru[K, V] {
	l := &lru[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		items:      make(map[K]*entry[K, V]),
	}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *lru[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (l *lru[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}

// get returns the cached value and marks it most recently used.
func (l *lru[K, V]) get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[k]
	if !ok {
		l.misses.Add(1)
		var zero V
		return zero, false
	}
	l.hits.Add(1)
	l.unlink(e)
	l.pushFront(e)
	return e.val, true
}

// put inserts or refreshes a value with the given cost and evicts from
// the cold end until both bounds hold. An over-budget single value is
// still admitted (and evicts everything else): rejecting it would make
// the cache silently useless for that key.
func (l *lru[K, V]) put(k K, v V, cost int64) {
	l.mu.Lock()
	if e, ok := l.items[k]; ok {
		l.bytes.Add(cost - e.cost)
		e.val, e.cost = v, cost
		l.unlink(e)
		l.pushFront(e)
	} else {
		e = &entry[K, V]{key: k, val: v, cost: cost}
		l.items[k] = e
		l.pushFront(e)
		l.bytes.Add(cost)
		l.entries.Add(1)
	}
	l.evictAndUnlock()
}

// evictAndUnlock evicts from the cold end until both bounds hold,
// releases the map mutex the caller holds, and then reports each
// evicted key to onEvict.
func (l *lru[K, V]) evictAndUnlock() {
	var evicted []K
	for len(l.items) > 1 &&
		((l.maxEntries > 0 && len(l.items) > l.maxEntries) ||
			(l.maxBytes > 0 && l.bytes.Load() > l.maxBytes)) {
		cold := l.root.prev
		l.unlink(cold)
		delete(l.items, cold.key)
		l.bytes.Add(-cold.cost)
		l.entries.Add(-1)
		l.evictions.Add(1)
		if l.onEvict != nil {
			evicted = append(evicted, cold.key)
		}
	}
	hook := l.onEvict
	l.mu.Unlock()
	for _, key := range evicted {
		hook(key)
	}
}

// stats snapshots the counters without taking the map mutex: the fields
// are atomics, so a scrape never contends with lookups or insertions.
func (l *lru[K, V]) stats() Stats {
	return Stats{
		Hits:      l.hits.Load(),
		Misses:    l.misses.Load(),
		Evictions: l.evictions.Load(),
		Entries:   int(l.entries.Load()),
		Bytes:     l.bytes.Load(),
	}
}
