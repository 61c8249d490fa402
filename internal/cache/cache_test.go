package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/driver"
)

// --- LRU mechanics ---

func TestLRUHitMissEviction(t *testing.T) {
	c := NewResultCache(2, 0)
	ka, kb, kc := Key{'a'}, Key{'b'}, Key{'c'}

	if _, ok := c.Get(ka); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(ka, []byte("ra"))
	c.Put(kb, []byte("rb"))
	if got, ok := c.Get(ka); !ok || string(got) != "ra" {
		t.Fatalf("Get(a) = %q, %v; want ra, true", got, ok)
	}
	// a was just used, so inserting c must evict b.
	c.Put(kc, []byte("rc"))
	if _, ok := c.Get(kb); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get(ka); !ok {
		t.Fatal("a evicted although most recently used")
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v; want 2 hits, 2 misses, 1 eviction, 2 entries", s)
	}
}

func TestLRUByteBound(t *testing.T) {
	c := NewResultCache(0, 10)
	c.Put(Key{1}, []byte("123456"))
	c.Put(Key{2}, []byte("123456")) // 12 bytes total: entry 1 must go
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 6 || s.Evictions != 1 {
		t.Fatalf("stats = %+v; want 1 entry, 6 bytes, 1 eviction", s)
	}
	// A single over-budget value is still admitted (the cache would
	// otherwise be useless for it), but evicts everything else.
	c.Put(Key{3}, bytes.Repeat([]byte("x"), 100))
	s = c.Stats()
	if s.Entries != 1 || s.Bytes != 100 {
		t.Fatalf("stats after oversized put = %+v; want the one oversized entry", s)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewResultCache(4, 0)
	k := Key{9}
	c.Put(k, []byte("old"))
	c.Put(k, []byte("newer"))
	if got, _ := c.Get(k); string(got) != "newer" {
		t.Fatalf("Get = %q; want newer", got)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 5 {
		t.Fatalf("stats = %+v; want 1 entry of 5 bytes after update", s)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewResultCache(64, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{byte(g), byte(i % 100)}
				if v, ok := c.Get(k); ok && len(v) == 0 {
					t.Error("empty value from cache")
				}
				c.Put(k, []byte(fmt.Sprintf("%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 64 {
		t.Fatalf("entry bound violated: %d entries", s.Entries)
	}
}

// --- request keys ---

func TestRequestKey(t *testing.T) {
	srcs := []driver.Source{{Path: "a.c", Text: "int f(void) { return 0; }\n"}}
	base := RequestKey(driver.Config{}, srcs)

	if RequestKey(driver.Config{}, srcs) != base {
		t.Fatal("equal requests produced different keys")
	}
	edited := []driver.Source{{Path: "a.c", Text: "int f(void) { return 1; }\n"}}
	if RequestKey(driver.Config{}, edited) == base {
		t.Fatal("text edit did not change the key")
	}
	poly := driver.Config{}
	poly.Options.Poly = true
	if RequestKey(poly, srcs) == base {
		t.Fatal("mode change did not change the key")
	}
	// Length prefixes: moving a byte between path and text must matter.
	a := RequestKey(driver.Config{}, []driver.Source{{Path: "ab", Text: "c"}})
	b := RequestKey(driver.Config{}, []driver.Source{{Path: "a", Text: "bc"}})
	if a == b {
		t.Fatal("path/text boundary not separated in the key")
	}
	// Neither the pool size nor solve_jobs changes the report, so two
	// requests differing only in them must share one result-cache entry.
	if RequestKey(driver.Config{Jobs: 2}, srcs) != base {
		t.Fatal("Jobs leaked into the request key")
	}
	if RequestKey(driver.Config{SolveJobs: 4}, srcs) != base {
		t.Fatal("SolveJobs leaked into the request key")
	}
}
