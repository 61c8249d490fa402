package cache

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/driver"
)

// SessionKey derives the session-store key for a named corpus. It
// hashes everything in the config that shapes the analysis result — the
// front-end language, the inference mode, the uninit flag, the selected
// analyses, and every prelude — plus the caller-chosen corpus id. Jobs
// is deliberately excluded: it has no effect on the result. Sources are excluded by construction: a session runs
// successive versions of one corpus.
func SessionKey(cfg driver.Config, corpus string) string {
	h := sha256.New()
	fmt.Fprintf(h, "lang:%s;", langKey(cfg))
	fmt.Fprintf(h, "cfg:%t,%t;", cfg.Options.Poly, cfg.Uninit)
	for _, a := range cfg.AnalysisNames() {
		fmt.Fprintf(h, "an:%d:%s;", len(a), a)
	}
	for _, p := range cfg.Preludes {
		fmt.Fprintf(h, "pre:%d:%s%d:%s", len(p.Path), p.Path, len(p.Text), p.Text)
	}
	fmt.Fprintf(h, "id:%d:%s", len(corpus), corpus)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// SessionStore is a bounded LRU of retained driver sessions, keyed by
// SessionKey. Eviction drops the session and its snapshot: the next
// request for that corpus creates a fresh session. Safe for concurrent
// use.
type SessionStore struct {
	lru *lru[string, *driver.Session]
}

// NewSessionStore builds a session store bounded by entry count
// (0 = unbounded).
func NewSessionStore(maxEntries int) *SessionStore {
	return &SessionStore{lru: newLRU[string, *driver.Session](maxEntries, 0)}
}

// OnEvict registers a hook observing every evicted session key. The
// hook fires outside the store lock. Register once, at startup, before
// traffic.
func (c *SessionStore) OnEvict(fn func(key string)) { c.lru.onEvict = fn }

// GetOrCreate returns the session for the key, creating it with mk under
// the store lock when absent — two racing requests for a new corpus get
// the same session, never one each. The boolean reports whether the
// session already existed.
func (c *SessionStore) GetOrCreate(key string, mk func() *driver.Session) (*driver.Session, bool) {
	l := c.lru
	l.mu.Lock()
	if e, ok := l.items[key]; ok {
		l.hits.Add(1)
		l.unlink(e)
		l.pushFront(e)
		l.mu.Unlock()
		return e.val, true
	}
	l.misses.Add(1)
	sess := mk()
	e := &entry[string, *driver.Session]{key: key, val: sess, cost: 1}
	l.items[key] = e
	l.pushFront(e)
	l.bytes.Add(1)
	l.entries.Add(1)
	var evicted []string
	for len(l.items) > 1 && l.maxEntries > 0 && len(l.items) > l.maxEntries {
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
	return sess, false
}

// SessionEntry is one retained session as seen by Entries.
type SessionEntry struct {
	Key     string
	Session *driver.Session
}

// Entries lists the retained sessions, most recently used first — the
// /v1/introspect view. The listing copies key and pointer under the
// store lock; callers read session state through the sessions' own
// lock-free snapshots.
func (c *SessionStore) Entries() []SessionEntry {
	l := c.lru
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SessionEntry, 0, len(l.items))
	for e := l.root.next; e != &l.root; e = e.next {
		out = append(out, SessionEntry{Key: e.key, Session: e.val})
	}
	return out
}

// Stats snapshots the store counters. Bytes counts entries, so the byte
// gauge doubles as an occupancy gauge.
func (c *SessionStore) Stats() Stats { return c.lru.stats() }
