package cache

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/driver"
)

// SessionKey derives the session-store key for a named corpus. It
// hashes everything in the config that shapes the analysis result — the
// front-end language, the inference mode, the uninit flag, the selected
// analyses, and every prelude — plus the caller-chosen corpus id.
// Sources are excluded by construction: a session runs successive
// versions of one corpus. Kept for bench/replay.go, removed with the
// next benchmark change.
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

// SessionStore is a bounded LRU of driver sessions, keyed by
// SessionKey. Safe for concurrent use. Kept for bench/replay.go,
// removed with the next benchmark change.
type SessionStore struct {
	lru *lru[string, *driver.Session]
}

// NewSessionStore builds a session store bounded by entry count
// (0 = unbounded).
func NewSessionStore(maxEntries int) *SessionStore {
	return &SessionStore{lru: newLRU[string, *driver.Session](maxEntries, 0)}
}

// GetOrCreate returns the session for the key, creating it with mk under
// the store lock when absent — two racing requests for a new corpus get
// the same session, never one each. The boolean reports whether the
// session already existed.
func (c *SessionStore) GetOrCreate(key string, mk func() *driver.Session) (*driver.Session, bool) {
	l := c.lru
	l.mu.Lock()
	if e, ok := l.items[key]; ok {
		l.unlink(e)
		l.pushFront(e)
		l.mu.Unlock()
		return e.val, true
	}
	sess := mk()
	e := &entry[string, *driver.Session]{key: key, val: sess, cost: 1}
	l.items[key] = e
	l.pushFront(e)
	l.bytes.Add(1)
	l.entries.Add(1)
	l.evictAndUnlock()
	return sess, false
}
