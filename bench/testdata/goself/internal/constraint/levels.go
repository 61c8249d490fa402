package constraint

// Level-parallel fixpoint sweeps.
//
// Within one mask class, Tarjan numbers the condensed components in
// reverse topological order: every edge leaving component c targets a
// lower-numbered component. Grouping components by topological depth —
// d(c) = longest edge path from any source component to c — therefore
// partitions the condensation into levels with no edges inside a
// level (an edge a→b forces d(b) ≥ d(a)+1), so all components of one
// level can be evaluated concurrently once every shallower level is
// final.
//
// The lower (least-fixpoint) sweep stays push-based, like its
// sequential twin: components at one level whose value is still ⊥ are
// skipped without touching their edges — on const-style workloads
// almost everything is skipped, and a pull-based rewrite would turn
// that sparse pass into a full edge walk. Pushes from one level all
// target strictly deeper levels, so concurrent pushes into a shared
// target are combined with an atomic OR; OR is associative and
// commutative, every edge is still relaxed at most once, and a
// component's own value is only read at its own level, after the
// barrier that finalizes it — the computed values are bit-for-bit
// those of the sequential sweep, at any worker count and under the
// race detector.
//
// The upper (greatest-fixpoint) sweep visits every edge in both the
// sequential and parallel forms (bounds shrink from ⊤, nothing is
// skippable), so it becomes pull-based: descending depth, each
// component reads its successors' finalized values through the forward
// CSR and writes only its own slot. No atomics needed — single writer
// per slot, barrier between levels.
//
// The level machinery only pays off when levels are wide: solveClass
// takes this path only for classes with at least levelSweepMin
// participants whose average level width reaches levelWidthMin, and
// falls back to the sequential sweeps otherwise (counted in
// SolveStats.SweepFallbacks). Small systems never allocate any of it.

import (
	"sync"
	"sync/atomic"

	"repro/internal/qual"
)

// Variables rather than constants only so the determinism tests can
// force the level path onto small systems.
var (
	// levelSweepMin is the participant count below which a class keeps
	// the sequential sweeps.
	levelSweepMin = 4096
	// levelWidthMin is the minimum average components-per-level; below
	// it the condensation is chain-shaped and barriers would dominate.
	levelWidthMin = 64
	// levelChunkMin is the minimum components per goroutine chunk
	// within one level.
	levelChunkMin = 256
)

// levelScratch holds the per-worker working arrays of the level
// sweeps, allocated lazily on the first class that qualifies and
// reused for every later one.
type levelScratch struct {
	depth    []int32 // component -> topological depth (0 = no incoming edges)
	lvlOff   []int32 // level -> start offset into lvlOrder
	lvlOrder []int32 // components grouped by level, ascending within each
	cur      []int32 // counting-sort cursor
	cnt      []int64 // per-chunk dropped-edge counters for the upper sweep
}

// ensureLevels grows (or first allocates) the level scratch for np
// participants.
func (ws *solveScratch) ensureLevels(np int) *levelScratch {
	lv := ws.lv
	if lv == nil {
		lv = &levelScratch{}
		ws.lv = lv
	}
	if len(lv.depth) < np {
		slab := make([]int32, 3*np+1)
		lv.depth = slab[:np:np]
		lv.lvlOff = slab[np : 2*np+1 : 2*np+1]
		lv.lvlOrder = slab[2*np+1:]
		lv.cur = make([]int32, np)
	}
	return lv
}

// computeLevels assigns every component its topological depth and
// groups components by level (counting sort, ascending component ids
// within a level), returning the level count. Components are visited
// in descending order, so each component's depth is final before its
// outgoing edges relax the depths of its (lower-numbered) targets.
func (lv *levelScratch) computeLevels(ncomp int, off, cTo, scc, members, mEnd []int32) int {
	depth := lv.depth[:ncomp]
	for i := range depth {
		depth[i] = 0
	}
	maxd := int32(0)
	for c := int32(ncomp) - 1; c >= 0; c-- {
		dc := depth[c]
		if dc > maxd {
			maxd = dc
		}
		dc++
		mStart := int32(0)
		if c > 0 {
			mStart = mEnd[c-1]
		}
		for mi := mStart; mi < mEnd[c]; mi++ {
			u := members[mi]
			for e := off[u]; e < off[u+1]; e++ {
				w := scc[cTo[e]]
				if w != c && depth[w] < dc {
					depth[w] = dc
				}
			}
		}
	}
	nlev := int(maxd) + 1
	lvlOff := lv.lvlOff[:nlev+1]
	for i := range lvlOff {
		lvlOff[i] = 0
	}
	for _, d := range depth {
		lvlOff[d+1]++
	}
	for i := 0; i < nlev; i++ {
		lvlOff[i+1] += lvlOff[i]
	}
	cur := lv.cur[:nlev]
	copy(cur, lvlOff[:nlev])
	for c := 0; c < ncomp; c++ {
		d := depth[c]
		lv.lvlOrder[cur[d]] = int32(c)
		cur[d]++
	}
	return nlev
}

// chunks splits one level's components across up to jobs goroutines
// (never fewer than levelChunkMin components each), running the last
// chunk inline. fn must only write state owned by its own components
// or its chunk index.
func (lv *levelScratch) chunks(total, jobs int, fn func(lo, hi, ci int)) {
	chunked(total, jobs, fn)
}

// chunked splits [0, total) across up to jobs goroutines (never fewer
// than levelChunkMin items each), running the last chunk inline and
// returning only when every chunk is done. fn must only write state
// owned by its own items or its chunk index — or use atomics.
func chunked(total, jobs int, fn func(lo, hi, ci int)) {
	nchunks := (total + levelChunkMin - 1) / levelChunkMin
	if nchunks > jobs {
		nchunks = jobs
	}
	if nchunks <= 1 {
		fn(0, total, 0)
		return
	}
	var wg sync.WaitGroup
	for ci := 0; ci < nchunks-1; ci++ {
		wg.Add(1)
		go func(lo, hi, ci int) {
			defer wg.Done()
			fn(lo, hi, ci)
		}(ci*total/nchunks, (ci+1)*total/nchunks, ci)
	}
	fn((nchunks-1)*total/nchunks, total, nchunks-1)
	wg.Wait()
}

// sweepLower runs the least-fixpoint sweep level by level, ascending
// depth: each component at the level pushes its (now final) value to
// its successors, all at strictly deeper levels, with an atomic OR.
// Components still at ⊥ are skipped edge-free, exactly like the
// sequential sweep.
func (lv *levelScratch) sweepLower(nlev int, cl []qual.Elem, scc, off, cTo, members, mEnd []int32, jobs int) {
	for L := 0; L < nlev; L++ {
		comps := lv.lvlOrder[lv.lvlOff[L]:lv.lvlOff[L+1]]
		lv.chunks(len(comps), jobs, func(lo, hi, _ int) {
			for _, c := range comps[lo:hi] {
				// Own-level read is safe: every push into c happened at a
				// shallower level, before this level's barrier.
				lval := cl[c]
				if lval == 0 {
					continue
				}
				mStart := int32(0)
				if c > 0 {
					mStart = mEnd[c-1]
				}
				for mi := mStart; mi < mEnd[c]; mi++ {
					u := members[mi]
					for e := off[u]; e < off[u+1]; e++ {
						w := scc[cTo[e]]
						if w == c {
							continue // intra-component edge: OR with itself
						}
						atomic.OrUint64((*uint64)(&cl[w]), uint64(lval))
					}
				}
			}
		})
	}
}

// sweepUpper runs the greatest-fixpoint sweep level by level,
// descending depth: each component pulls the finalized values of its
// successors (all at strictly deeper levels) through the forward CSR.
// Intra-component edges are counted per chunk and summed — the same
// EdgesDropped total the sequential sweep reports.
func (lv *levelScratch) sweepUpper(nlev int, cu []qual.Elem, scc, off, cTo, members, mEnd []int32, jobs int) int {
	if len(lv.cnt) < jobs {
		lv.cnt = make([]int64, jobs)
	}
	dropped := 0
	for L := nlev - 1; L >= 0; L-- {
		comps := lv.lvlOrder[lv.lvlOff[L]:lv.lvlOff[L+1]]
		nchunks := (len(comps) + levelChunkMin - 1) / levelChunkMin
		if nchunks > jobs {
			nchunks = jobs
		}
		if nchunks < 1 {
			nchunks = 1
		}
		for i := 0; i < nchunks; i++ {
			lv.cnt[i] = 0
		}
		lv.chunks(len(comps), jobs, func(lo, hi, ci int) {
			local := int64(0)
			for _, c := range comps[lo:hi] {
				acc := cu[c]
				mStart := int32(0)
				if c > 0 {
					mStart = mEnd[c-1]
				}
				for mi := mStart; mi < mEnd[c]; mi++ {
					u := members[mi]
					for e := off[u]; e < off[u+1]; e++ {
						w := scc[cTo[e]]
						if w == c {
							local++
						}
						acc &= cu[w]
					}
				}
				cu[c] = acc
			}
			lv.cnt[ci] = local
		})
		for i := 0; i < nchunks; i++ {
			dropped += int(lv.cnt[i])
		}
	}
	return dropped
}
