package constraint

// Connected-component (region) fan-out within one mask class.
//
// The parallel machinery so far — class fan-out (parallel.go) and
// level-parallel sweeps (levels.go) — still leaves the dominant passes
// of a large single-class solve sequential: Tarjan and the level
// computation are both O(vars+edges) walks on the spine. Real corpora,
// however, are not one connected blob. A large translation unit
// decomposes into many thousands of small connected components —
// per-function variable clusters joined only where declarations are
// shared — and components are fully independent subproblems: no
// ⊑-edge crosses them, by definition. So this file fans out *whole
// components*: each worker pulls a batch of regions and runs the
// entire per-region pipeline on each — Tarjan, constant-bound seeding,
// both fixpoint sweeps, the solution broadcast — with no barriers
// between stages and no merge step afterwards, because regions
// partition the participants and every shared write (scc, lower,
// upper, touched) lands on the region's own variables.
//
// The decomposition itself (union-find, region numbering, seed
// bucketing) is a sequential pass, so it is computed once and cached
// on the System, exactly like the flattened edge arrays in System.ec:
// constraints are append-only, so as long as the constraint count is
// unchanged the class CSR — and therefore the region partition and the
// per-region seed buckets — are bit-for-bit reproducible, and a
// re-solve skips straight to the fan-out. Servers re-solving retained
// systems and repeated benchmark rounds both sit on this cache; the
// first parallel solve after a growth pays the one linear prep pass.
//
// Determinism. The union-find keeps the minimum local id as every
// region's root (path halving reparents interior nodes but never
// changes a root), region ids are assigned in ascending first-node
// order, and each region's internal solve is the sequential algorithm
// verbatim over the region's slice of the class CSR. The values
// written are therefore bit-for-bit the sequential solve's, the stat
// contributions are order-independent integer sums, and the spine
// emits the same spans — at any worker count, under the race
// detector.
//
// The path declines (returning the class to the level-parallel or
// sequential sweeps) when the class is small, when there are fewer
// than ccRegionMin regions per worker to balance, or when one region
// holds most of the class — a worker would serialize on it, and wide
// single-blob condensations are exactly what the level sweeps split
// well. Declining writes nothing observable.

import (
	"sync"
	"sync/atomic"

	"repro/internal/qual"
)

// ccRegionMin is the minimum number of connected components per worker
// for the region fan-out to engage. A variable only so the determinism
// tests can force the path onto small systems.
var ccRegionMin = 8

// ccTotals accumulates one worker's stat contributions; summed on the
// spine after the pool drains.
type ccTotals struct {
	comps, sccs, varsC, dropped int
}

// ccScratch holds the region decomposition, persisted on the System.
// The arrays double as a cache: valid while (ncons, class, np) match
// the prepared values, because the class CSR they were derived from is
// a pure function of the append-only constraint list.
type ccScratch struct {
	parent  []int32 // union-find, then recycled as counting-sort cursor
	ccOf    []int32 // local id -> dense region id
	ccNodes []int32 // local ids grouped by region, ascending within each
	ccOff   []int32 // region -> start offset into ccNodes
	loOff   []int32 // region -> start offset into loIdx
	upOff   []int32
	loIdx   []int32 // constant-bound instance indices grouped by region
	upIdx   []int32
	looseLo []int32 // bound instances on variables outside the class
	looseUp []int32
	totals  []ccTotals

	validNcons int       // prep inputs the cached arrays were built from
	validClass qual.Elem //
	validNP    int       //
	ncc        int       // cached region count
	balanced   bool      // largest region small enough to fan out
}

// ensureCC grows (or first allocates) the region scratch for np
// participants and the system's constant-bound instance counts.
func (s *System) ensureCC(np, nlo, nup int) *ccScratch {
	cs := s.ccs
	if cs == nil {
		cs = &ccScratch{}
		s.ccs = cs
	}
	if len(cs.parent) < np {
		slab := make([]int32, 6*np+3)
		grab := func(l int) []int32 {
			r := slab[:l:l]
			slab = slab[l:]
			return r
		}
		cs.parent = grab(np)
		cs.ccOf = grab(np)
		cs.ccNodes = grab(np)
		cs.ccOff = grab(np + 1)
		cs.loOff = grab(np + 1)
		cs.upOff = grab(np + 1)
	}
	if len(cs.loIdx) < nlo {
		cs.loIdx = make([]int32, nlo)
	}
	if len(cs.upIdx) < nup {
		cs.upIdx = make([]int32, nup)
	}
	return cs
}

// solveClassCC attempts the region fan-out for one mask class whose
// CSR adjacency (w.off, w.cTo over np participants) the caller has just
// built. On success it completes the class entirely — seeds, sweeps,
// broadcast, stats — and returns the total component count for the
// class span. On decline nothing observable has been written and the
// caller proceeds with the usual per-class pipeline.
func (s *System) solveClassCC(w *solveScratch, class, tc qual.Elem, np int, lower, upper []qual.Elem, jobs int) (int, bool) {
	if np < levelSweepMin {
		return 0, false
	}
	ec := &s.ec
	cs := s.ensureCC(np, len(ec.loVar), len(ec.upVar))
	if cs.validNcons != ec.ncons || cs.validClass != class || cs.validNP != np {
		s.prepareRegions(w, cs, class, tc, np)
		cs.validNcons, cs.validClass, cs.validNP = ec.ncons, class, np
	}
	ncc := cs.ncc
	if !cs.balanced || ncc < jobs*ccRegionMin {
		return 0, false
	}

	// Constant bounds on variables no edge of the class touches apply
	// directly — they propagate nowhere — exactly as the sequential
	// seed loop would write them.
	for _, i := range cs.looseLo {
		lower[ec.loVar[i]] |= ec.loElem[i] & class
	}
	for _, i := range cs.looseUp {
		upper[ec.upVar[i]] &= ec.upC[i] | ^(ec.upMask[i] & class)
	}

	// Fan regions out to the worker pool in batches (regions are small;
	// one atomic pull per region would cost more than many regions'
	// solves). Each worker owns a full solveScratch — slot 0 aliases the
	// sequential one — but reads the class CSR and writes the shared
	// solution arrays through w, always at indices owned by its current
	// region.
	nw := jobs
	if nw > ncc {
		nw = ncc
	}
	for len(s.pool) < nw {
		s.pool = append(s.pool, nil)
	}
	s.pool[0] = s.scratch
	for i := 0; i < nw; i++ {
		s.pool[i] = growScratch(s.pool[i], s.n, 0)
	}
	s.scratch = s.pool[0]
	if cap(cs.totals) < nw {
		cs.totals = make([]ccTotals, nw)
	}
	totals := cs.totals[:nw]
	batch := ncc / (nw * 8)
	if batch < 16 {
		batch = 16
	}

	var next atomic.Int32
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int, ws *solveScratch) {
			defer wg.Done()
			var tt ccTotals
			for {
				lo := int(next.Add(int32(batch))) - batch
				if lo >= ncc {
					break
				}
				hi := lo + batch
				if hi > ncc {
					hi = ncc
				}
				for ci := lo; ci < hi; ci++ {
					s.solveRegion(ws, w, cs, ci, class, tc, lower, upper, &tt)
				}
			}
			totals[wi] = tt
		}(wi, s.pool[wi])
	}
	wg.Wait()

	ncomp := 0
	for i := range totals {
		ncomp += totals[i].comps
		s.stats.SCCsCollapsed += totals[i].sccs
		s.stats.VarsCollapsed += totals[i].varsC
		s.stats.EdgesDropped += totals[i].dropped
	}
	s.stats.Components += ncomp
	s.stats.CCRegions += ncc
	return ncomp, true
}

// prepareRegions computes the region decomposition of the current class
// CSR: the union-find partition, the dense region numbering, the nodes
// grouped by region, and the class's constant-bound instances bucketed
// by region (instances on untouched variables go to the loose lists).
// Pure preparation — nothing observable is written, so the caller may
// still decline the fan-out afterwards.
func (s *System) prepareRegions(w *solveScratch, cs *ccScratch, class, tc qual.Elem, np int) {
	ec := &s.ec
	off, cTo := w.off, w.cTo

	// Union-find with minimum-id roots: path halving reparents interior
	// nodes toward the root but never changes which node is the root, so
	// every region's root is its minimum local id regardless of the edge
	// order unions arrive in.
	parent := cs.parent[:np]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); u < int32(np); u++ {
		for e := off[u]; e < off[u+1]; e++ {
			ra, rb := find(u), find(cTo[e])
			if ra == rb {
				continue
			}
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}

	// Dense region ids in ascending first-node order. Scanning local ids
	// upward, a node that is its own root opens a new region; any other
	// node's root is a strictly smaller id whose region id is already
	// assigned.
	ncc := 0
	ccOf := cs.ccOf[:np]
	for l := int32(0); l < int32(np); l++ {
		if r := find(l); r == l {
			ccOf[l] = int32(ncc)
			ncc++
		} else {
			ccOf[l] = ccOf[r]
		}
	}
	cs.ncc = ncc

	// Group nodes by region (counting sort, ascending local ids within
	// each region); remember whether any single region dominates the
	// class — a worker would serialize on it.
	ccOff := cs.ccOff[:ncc+1]
	for i := range ccOff {
		ccOff[i] = 0
	}
	for _, c := range ccOf {
		ccOff[c+1]++
	}
	maxSz := int32(0)
	for i := 0; i < ncc; i++ {
		if sz := ccOff[i+1]; sz > maxSz {
			maxSz = sz
		}
		ccOff[i+1] += ccOff[i]
	}
	cs.balanced = int(maxSz) <= np/2
	cur := parent // union-find is done; recycle as the sort cursor
	copy(cur[:ncc], ccOff[:ncc])
	ccNodes := cs.ccNodes[:np]
	for l := int32(0); l < int32(np); l++ {
		c := ccOf[l]
		ccNodes[cur[c]] = l
		cur[c]++
	}

	// Bucket the class's constant bounds by region (counting sort over
	// the instance indices); bounds on variables outside the class
	// collect in the loose lists, no-op bounds are dropped up front.
	lid, touched := w.lid, w.touched
	loOff, upOff := cs.loOff[:ncc+1], cs.upOff[:ncc+1]
	for i := range loOff {
		loOff[i] = 0
		upOff[i] = 0
	}
	cs.looseLo, cs.looseUp = cs.looseLo[:0], cs.looseUp[:0]
	for i, v := range ec.loVar {
		if seed := ec.loElem[i] & class; seed != 0 {
			if touched[v] {
				loOff[ccOf[lid[v]]+1]++
			} else {
				cs.looseLo = append(cs.looseLo, int32(i))
			}
		}
	}
	for i, v := range ec.upVar {
		if ec.upMask[i]&^ec.upC[i]&tc == 0 {
			continue
		}
		if touched[v] {
			upOff[ccOf[lid[v]]+1]++
		} else {
			cs.looseUp = append(cs.looseUp, int32(i))
		}
	}
	for i := 0; i < ncc; i++ {
		loOff[i+1] += loOff[i]
		upOff[i+1] += upOff[i]
	}
	loIdx, upIdx := cs.loIdx, cs.upIdx
	copy(cur[:ncc], loOff[:ncc])
	for i, v := range ec.loVar {
		if seed := ec.loElem[i] & class; seed != 0 && touched[v] {
			c := ccOf[lid[v]]
			loIdx[cur[c]] = int32(i)
			cur[c]++
		}
	}
	copy(cur[:ncc], upOff[:ncc])
	for i, v := range ec.upVar {
		if ec.upMask[i]&^ec.upC[i]&tc == 0 || !touched[v] {
			continue
		}
		c := ccOf[lid[v]]
		upIdx[cur[c]] = int32(i)
		cur[c]++
	}
}

// solveRegion solves one region end to end on a worker: Tarjan over the
// region's nodes, constant-bound seeding, both fixpoint sweeps, and the
// solution broadcast — the sequential class pipeline verbatim,
// restricted to the region. Shared writes (w.scc, lower, upper,
// touched) land only on the region's own nodes, which no other region
// shares.
func (s *System) solveRegion(ws, w *solveScratch, cs *ccScratch, ci int, class, tc qual.Elem, lower, upper []qual.Elem, tt *ccTotals) {
	ec := &s.ec
	nodes := cs.ccNodes[cs.ccOff[ci]:cs.ccOff[ci+1]]
	off, cTo, scc, part, lid, touched := w.off, w.cTo, w.scc, w.part, w.lid, w.touched

	ncomp := tarjanCC(nodes, off, cTo, ws.sc, scc)
	members, mEnd := ws.sc.members, ws.sc.mEnd
	tt.comps += ncomp
	prevEnd := int32(0)
	for c := 0; c < ncomp; c++ {
		sz := mEnd[c] - prevEnd
		prevEnd = mEnd[c]
		if sz >= 2 {
			tt.sccs++
			tt.varsC += int(sz) - 1
		}
	}

	cl, cu := ws.cl, ws.cu
	for i := 0; i < ncomp; i++ {
		cl[i] = 0
		cu[i] = tc
	}
	hasLower := false
	for _, i := range cs.loIdx[cs.loOff[ci]:cs.loOff[ci+1]] {
		cl[scc[lid[ec.loVar[i]]]] |= ec.loElem[i] & class
		hasLower = true
	}
	hasUpper := false
	for _, i := range cs.upIdx[cs.upOff[ci]:cs.upOff[ci+1]] {
		cu[scc[lid[ec.upVar[i]]]] &= ec.upC[i] | ^(ec.upMask[i] & class)
		hasUpper = true
	}

	if hasLower {
		for c := ncomp - 1; c >= 0; c-- {
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
					cl[scc[cTo[e]]] |= lval
				}
			}
		}
	}
	if hasUpper {
		dropped := 0
		for c := 0; c < ncomp; c++ {
			acc := cu[c]
			mStart := int32(0)
			if c > 0 {
				mStart = mEnd[c-1]
			}
			for mi := mStart; mi < mEnd[c]; mi++ {
				u := members[mi]
				for e := off[u]; e < off[u+1]; e++ {
					wc := scc[cTo[e]]
					if wc == int32(c) {
						dropped++
					}
					acc &= cu[wc]
				}
			}
			cu[c] = acc
		}
		tt.dropped += dropped
	} else {
		tt.dropped += intraScan(ncomp, off, cTo, scc, members, mEnd)
	}

	for _, l := range nodes {
		v := part[l]
		lower[v] |= cl[scc[l]]
		upper[v] &= cu[scc[l]] | ^tc
		touched[v] = false
	}
}

// tarjanCC is tarjan restricted to one region's nodes: the index array
// is initialized lazily over exactly those nodes, so the pass is
// proportional to the region, not the class, and components are
// numbered from zero per region (reverse topological order within it).
// Edges never leave a region, so stale index entries from other regions
// are never read; comp is written only at the region's nodes.
func tarjanCC(nodes []int32, off, to []int32, sc *tarjanScratch, comp []int32) int {
	index, low := sc.index, sc.low
	for _, l := range nodes {
		index[l] = -1
	}
	stack := sc.stack[:0]
	frames := sc.frames[:0]
	members, mEnd := sc.members, sc.mEnd[:0]
	var mPos int32
	var next int32
	ncomp := 0
	for _, root := range nodes {
		if index[root] >= 0 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		frames = append(frames, tframe{root, off[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for ei := f.ei; ei < off[v+1]; ei++ {
				w := to[ei]
				if index[w] < 0 {
					f.ei = ei + 1
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					frames = append(frames, tframe{w, off[w]})
					advanced = true
					break
				}
				if low[v] > index[w] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			frames = frames[:len(frames)-1]
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					index[w] = tarjanDone
					comp[w] = int32(ncomp)
					members[mPos] = w
					mPos++
					if w == v {
						break
					}
				}
				mEnd = append(mEnd, mPos)
				ncomp++
			}
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[p.v] > low[v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	sc.stack, sc.frames, sc.mEnd = stack[:0], frames[:0], mEnd
	return ncomp
}
