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
	// The summary cache changes cost, never results: same key with and
	// without one installed.
	warm := driver.Config{Summaries: NewSummaryStore(0, 0)}
	if RequestKey(warm, srcs) != base {
		t.Fatal("Summaries leaked into the request key")
	}
	// solve_jobs has no effect on the report, so two requests differing
	// only in it must share one result-cache entry.
	if RequestKey(driver.Config{SolveJobs: 4}, srcs) != base {
		t.Fatal("SolveJobs leaked into the request key")
	}
}

// --- end-to-end determinism of the summary layer ---

const progA = `
int deref(const int *p) { return *p; }
int twice(int x) { return deref(&x) + deref(&x); }
int entry(int *q) { return twice(*q); }
`

// progAEdited changes one function body in place (same declarations,
// same positions elsewhere): only entry's fragment should be re-derived.
const progAEdited = `
int deref(const int *p) { return *p; }
int twice(int x) { return deref(&x) + deref(&x); }
int entry(int *q) { return twice(*q) + 1; }
`

func runJSON(t *testing.T, cfg driver.Config, text string) []byte {
	t.Helper()
	res, err := driver.Run(cfg, []driver.Source{{Path: "prog.c", Text: text}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatalf("front end failed: %+v", res.Diagnostics)
	}
	res.Timings = driver.Timings{} // wall-clock is the one permitted difference
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSummaryDeterminism is the acceptance check: an analysis replayed
// from a warm summary cache must be byte-identical to a cold run.
func TestSummaryDeterminism(t *testing.T) {
	for _, mode := range []string{"mono", "poly"} {
		t.Run(mode, func(t *testing.T) {
			var cfg driver.Config
			cfg.Options.Poly = mode == "poly"
			cold := runJSON(t, cfg, progA)

			store := NewSummaryStore(0, 0)
			cfg.Summaries = store
			first := runJSON(t, cfg, progA) // fills the store
			warm := runJSON(t, cfg, progA)  // replays every fragment

			if !bytes.Equal(cold, first) {
				t.Errorf("cold-store run differs from cacheless run:\n%s\n---\n%s", cold, first)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("warm run differs from cold run:\n%s\n---\n%s", cold, warm)
			}
			s := store.Stats()
			if s.Hits == 0 {
				t.Errorf("warm run recorded no summary hits: %+v", s)
			}
		})
	}
}

// TestSummaryIncremental edits one function body and checks both that
// the other functions replay from cache and that the result is still
// byte-identical to a cold run of the edited program.
func TestSummaryIncremental(t *testing.T) {
	var cold driver.Config
	want := runJSON(t, cold, progAEdited)

	store := NewSummaryStore(0, 0)
	cfg := driver.Config{Summaries: store}
	runJSON(t, cfg, progA) // prime: 3 function summaries
	base := store.Stats()

	got := runJSON(t, cfg, progAEdited)
	if !bytes.Equal(want, got) {
		t.Errorf("incremental run differs from cold run:\n%s\n---\n%s", want, got)
	}
	s := store.Stats()
	if hits := s.Hits - base.Hits; hits != 2 {
		t.Errorf("summary hits = %d; want 2 (deref and twice unchanged, entry edited)", hits)
	}
}

// TestSummaryConcurrent shares one store across parallel analyses of
// distinct programs; run under -race this exercises the locking and the
// immutability of stored fragments.
func TestSummaryConcurrent(t *testing.T) {
	store := NewSummaryStore(0, 0)
	progs := []string{progA, progAEdited,
		"int id(int x) { return x; }\nint use(int *p) { return id(*p); }\n",
	}
	wants := make([][]byte, len(progs))
	for i, p := range progs {
		wants[i] = runJSON(t, driver.Config{}, p)
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, p := range progs {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				got := runJSON(t, driver.Config{Summaries: store}, p)
				if !bytes.Equal(got, wants[i]) {
					t.Errorf("prog %d: concurrent cached run differs from cold run", i)
				}
			}(i, p)
		}
	}
	wg.Wait()
}
