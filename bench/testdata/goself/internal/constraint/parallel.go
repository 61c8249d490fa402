package constraint

// Parallel class solve.
//
// Mask classes are independent by construction — the partition
// (maskClasses) guarantees every edge mask either contains a class or
// is disjoint from it, so each class is a self-contained unmasked
// subproblem over its own participants. SolveContext therefore
// dispatches classes to a bounded worker pool: each worker owns a full
// solveScratch (the persistent-slab reuse survives — pool slot 0
// aliases the System's sequential scratch), solves its class exactly
// as the sequential loop would, and records the outcome in a
// classResult instead of writing the shared solution arrays. The
// sequential spine then merges results in class-index order, emitting
// the per-class "solve.class" spans itself — the same clock-call
// sequence as a sequential solve, so traces stay byte-identical at any
// worker count — and broadcasting values with the same |=/&= formulas.
// Classes write disjoint lattice components, and both operators are
// commutative and idempotent, so the merged solution is bit-for-bit
// the sequential one.
//
// classResult buffers live on the System in a pool indexed by class
// and are recycled across solves (append-into-truncated-slice), so a
// re-solving server reaches a steady state where the parallel path
// allocates nothing per solve beyond the worker goroutines.
//
// Within a class, large condensations additionally run their fixpoint
// sweeps level-parallel; see levels.go.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/qual"
)

// parallelSolveMin is the variable-variable edge count below which
// SolveContext stays on the sequential class loop even when more
// workers are allowed: dispatching a pool and copying per-class
// results costs more than the solve itself on small systems.
// deltaParallelMin is the analogous floor, in changed edge instances,
// for the Session delta path's class fan-out. Both are variables only
// so the determinism tests can force the parallel paths onto small
// systems.
var (
	parallelSolveMin = 2048
	deltaParallelMin = 512
)

// SetSolveJobs bounds the solver parallelism of subsequent Solve
// calls: n > 1 enables the parallel class pool (and level-parallel
// sweeps) with at most n workers, n == 1 forces the sequential path,
// and n == 0 (the default) uses GOMAXPROCS. Output is byte-identical
// at any setting; only wall time changes.
func (s *System) SetSolveJobs(n int) { s.solveJobs = n }

func (s *System) effectiveJobs() int {
	return effectiveJobs(s.solveJobs)
}

func effectiveJobs(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// classResult is one worker's solved class, in local terms: per-
// participant final class values, plus the loose constant bounds on
// variables the class's edges never touch (the sequential loop writes
// those straight into the solution arrays; a worker must not). The
// spine applies all of it during the ordered merge.
type classResult struct {
	kept, np, ncomp int

	part   []int32     // participants, dense local order
	lo, up []qual.Elem // per participant: final lower / upper class value

	looseLoV []int32 // untouched-variable seeds: lower[v] |= e
	looseLoE []qual.Elem
	looseUpV []int32 // untouched-variable bounds: upper[v] &= e
	looseUpE []qual.Elem

	sccs, varsC, dropped int
	levels               int // >0: level-parallel sweeps ran with this many levels
}

func (r *classResult) reset() {
	r.kept, r.np, r.ncomp = 0, 0, 0
	r.sccs, r.varsC, r.dropped, r.levels = 0, 0, 0, 0
	r.part = r.part[:0]
	r.lo, r.up = r.lo[:0], r.up[:0]
	r.looseLoV, r.looseLoE = r.looseLoV[:0], r.looseLoE[:0]
	r.looseUpV, r.looseUpE = r.looseUpV[:0], r.looseUpE[:0]
}

// solveClassesParallel runs the per-class solves of SolveContext on a
// worker pool and merges the results in class-index order. The caller
// has already filled the edge cache and ensured s.scratch.
func (s *System) solveClassesParallel(tr *obs.Tracer, classes []qual.Elem, lower, upper []qual.Elem, jobs int) {
	ec := &s.ec
	nw := jobs
	if nw > len(classes) {
		nw = len(classes)
	}

	// Per-class result buffers, recycled across solves.
	if cap(s.cres) >= len(classes) {
		s.cres = s.cres[:len(classes)]
	} else {
		nc := make([]classResult, len(classes))
		copy(nc, s.cres)
		s.cres = nc
	}

	// Per-worker scratch. cTo is sized by the largest class (a worker
	// may draw any class); slot 0 aliases the sequential scratch so
	// switching between jobs settings never duplicates it.
	maxKept := 0
	for _, class := range classes {
		kept := 0
		for mi, m := range ec.masks {
			if m&class != 0 {
				kept += len(ec.byMask[mi])
			}
		}
		if kept > maxKept {
			maxKept = kept
		}
	}
	for len(s.pool) < nw {
		s.pool = append(s.pool, nil)
	}
	s.pool[0] = s.scratch
	for i := 0; i < nw; i++ {
		s.pool[i] = growScratch(s.pool[i], s.n, maxKept)
	}
	s.scratch = s.pool[0]

	var next atomic.Int32
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(ws *solveScratch) {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(classes) {
					return
				}
				s.solveClass(ws, &s.cres[ci], classes[ci], jobs)
			}
		}(s.pool[wi])
	}
	wg.Wait()

	s.stats.Workers = nw
	s.stats.ParallelClasses = len(classes)

	// Ordered merge on the spine: spans, solution broadcast, stats —
	// all in class-index order, mirroring the sequential loop.
	for ci, class := range classes {
		res := &s.cres[ci]
		sp := tr.Start("solver", "solve.class",
			obs.String("mask", fmt.Sprintf("%#x", uint64(class))))
		for i, v := range res.looseLoV {
			lower[v] |= res.looseLoE[i]
		}
		for i, v := range res.looseUpV {
			upper[v] &= res.looseUpE[i]
		}
		if res.kept == 0 {
			sp.SetAttr(obs.Int("edges", 0), obs.Int("vars", 0))
			sp.End()
			continue
		}
		for i, v := range res.part {
			lower[v] |= res.lo[i]
			upper[v] &= res.up[i]
		}
		sp.SetAttr(obs.Int("edges", res.kept), obs.Int("vars", res.np),
			obs.Int("components", res.ncomp))
		s.stats.Components += res.ncomp
		s.stats.SCCsCollapsed += res.sccs
		s.stats.VarsCollapsed += res.varsC
		s.stats.EdgesDropped += res.dropped
		if res.levels > 0 {
			s.stats.SweepLevels += res.levels
		} else {
			s.stats.SweepFallbacks++
		}
		sp.End()
	}
}

// solveClass solves one mask class into res using only the worker's
// own scratch. It mirrors the sequential class loop of SolveContext
// step for step (the determinism tests hold the two paths to
// byte-identical results); the only difference is that writes to the
// shared solution arrays are recorded for the spine to apply.
func (s *System) solveClass(ws *solveScratch, res *classResult, class qual.Elem, jobs int) {
	ec := &s.ec
	tc := s.set.Top() & class
	res.reset()

	ws.buckets = ws.buckets[:0]
	kept := 0
	for mi, m := range ec.masks {
		if m&class != 0 {
			ws.buckets = append(ws.buckets, ec.byMask[mi])
			kept += len(ec.byMask[mi])
		}
	}
	res.kept = kept
	if kept == 0 {
		// No ⊑-edges relate this class: constant bounds apply directly.
		// Entries the bound leaves unchanged are skipped (recording them
		// would be a no-op broadcast).
		for i, v := range ec.loVar {
			if seed := ec.loElem[i] & class; seed != 0 {
				res.looseLoV = append(res.looseLoV, v)
				res.looseLoE = append(res.looseLoE, seed)
			}
		}
		for i, v := range ec.upVar {
			if ec.upMask[i]&^ec.upC[i]&tc == 0 {
				continue
			}
			res.looseUpV = append(res.looseUpV, v)
			res.looseUpE = append(res.looseUpE, ec.upC[i]|^(ec.upMask[i]&class))
		}
		return
	}

	sc, scc, lid, touched := ws.sc, ws.scc, ws.lid, ws.touched
	off, cTo, cl, cu := ws.off, ws.cTo, ws.cl, ws.cu
	var np int
	np, ws.part = classAdj(ec.eFrom, ec.eTo, ws.buckets, lid, touched, ws.part, off, ws.cur, cTo)
	part := ws.part
	ncomp := tarjan(np, off, cTo, nil, 0, sc, scc)
	members, mEnd := sc.members, sc.mEnd
	res.np, res.ncomp = np, ncomp

	prevEnd := int32(0)
	for c := 0; c < ncomp; c++ {
		sz := mEnd[c] - prevEnd
		prevEnd = mEnd[c]
		if sz >= 2 {
			res.sccs++
			res.varsC += int(sz) - 1
		}
	}

	hasLower, hasUpper := false, false
	for i := 0; i < ncomp; i++ {
		cl[i] = 0
		cu[i] = tc
	}
	for i, v := range ec.loVar {
		if seed := ec.loElem[i] & class; seed != 0 {
			if touched[v] {
				cl[scc[lid[v]]] |= seed
				hasLower = true
			} else {
				res.looseLoV = append(res.looseLoV, v)
				res.looseLoE = append(res.looseLoE, seed)
			}
		}
	}
	for i, v := range ec.upVar {
		if ec.upMask[i]&^ec.upC[i]&tc == 0 {
			continue
		}
		bound := ec.upC[i] | ^(ec.upMask[i] & class)
		if touched[v] {
			cu[scc[lid[v]]] &= bound
			hasUpper = true
		} else {
			res.looseUpV = append(res.looseUpV, v)
			res.looseUpE = append(res.looseUpE, bound)
		}
	}

	// Fixpoint sweeps: level-parallel when the condensation is large
	// and wide enough (see levels.go), the sequential linear sweeps
	// otherwise — small or chain-shaped classes pay nothing for the
	// level machinery.
	if jobs > 1 && np >= levelSweepMin && (hasLower || hasUpper) {
		lv := ws.ensureLevels(np)
		nlev := lv.computeLevels(ncomp, off, cTo, scc, members, mEnd)
		if ncomp >= nlev*levelWidthMin {
			res.levels = nlev
			if hasLower {
				lv.sweepLower(nlev, cl, scc, off, cTo, members, mEnd, jobs)
			}
			if hasUpper {
				res.dropped += lv.sweepUpper(nlev, cu, scc, off, cTo, members, mEnd, jobs)
			} else {
				res.dropped += intraScan(ncomp, off, cTo, scc, members, mEnd)
			}
		}
	}
	if res.levels == 0 {
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
						w := scc[cTo[e]]
						if w == int32(c) {
							dropped++
						}
						acc &= cu[w]
					}
				}
				cu[c] = acc
			}
			res.dropped += dropped
		} else {
			res.dropped += intraScan(ncomp, off, cTo, scc, members, mEnd)
		}
	}

	// Record the participants' final class values and restore the
	// touched invariant for the worker's next class.
	res.part = append(res.part[:0], part...)
	if cap(res.lo) >= np {
		res.lo, res.up = res.lo[:np], res.up[:np]
	} else {
		sol := make([]qual.Elem, 2*np)
		res.lo, res.up = sol[:np:np], sol[np:]
	}
	for i, v := range part {
		res.lo[i] = cl[scc[i]]
		res.up[i] = cu[scc[i]] | ^tc
		touched[v] = false
	}
}

// seedClassInline applies one class's constant bounds concurrently,
// writing straight into the spine's working arrays: seeds on
// participants land on their component's slot in cl/cu, seeds on
// untouched variables land in the solution arrays directly. A variable
// can carry several bounds split across chunks, so every write is an
// atomic OR (lower) or AND (upper) — both commutative, so the
// combined values are bit-for-bit the sequential loop's. Used by the
// sequential class spine when no class fan-out is running; the fan-out
// workers keep their private sequential seed loops.
func (s *System) seedClassInline(w *solveScratch, class, tc qual.Elem, lower, upper []qual.Elem, jobs int) (hasLower, hasUpper bool) {
	ec := &s.ec
	scc, lid, touched := w.scc, w.lid, w.touched
	cl, cu := w.cl, w.cu
	var hasLo, hasUp atomic.Bool
	chunked(len(ec.loVar), jobs, func(lo, hi, _ int) {
		h := false
		for i := lo; i < hi; i++ {
			v := ec.loVar[i]
			if seed := ec.loElem[i] & class; seed != 0 {
				if touched[v] {
					atomic.OrUint64((*uint64)(&cl[scc[lid[v]]]), uint64(seed))
					h = true
				} else {
					atomic.OrUint64((*uint64)(&lower[v]), uint64(seed))
				}
			}
		}
		if h {
			hasLo.Store(true)
		}
	})
	chunked(len(ec.upVar), jobs, func(lo, hi, _ int) {
		h := false
		for i := lo; i < hi; i++ {
			if ec.upMask[i]&^ec.upC[i]&tc == 0 {
				continue
			}
			v := ec.upVar[i]
			bound := ec.upC[i] | ^(ec.upMask[i] & class)
			if touched[v] {
				atomic.AndUint64((*uint64)(&cu[scc[lid[v]]]), uint64(bound))
				h = true
			} else {
				atomic.AndUint64((*uint64)(&upper[v]), uint64(bound))
			}
		}
		if h {
			hasUp.Store(true)
		}
	})
	return hasLo.Load(), hasUp.Load()
}

// broadcastClassInline writes one class's solved component values back
// to its participants concurrently. Participants are distinct
// variables, so each chunk's writes are single-writer; the sweep
// barriers have already finalized cl/cu.
func broadcastClassInline(part, scc []int32, cl, cu, lower, upper []qual.Elem, touched []bool, tc qual.Elem, jobs int) {
	chunked(len(part), jobs, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			v := part[i]
			lower[v] |= cl[scc[i]]
			upper[v] &= cu[scc[i]] | ^tc
			touched[v] = false
		}
	})
}

// applyDeltaParallel runs applyClassDelta for every class on a worker
// pool. Each class mutates only its own classState; the shared
// solution arrays and collapse counters are written through the
// deferred logs (classState.deferred), which the spine replays here in
// class-index order — so values, counters, and fallback reasons are
// byte-identical to the sequential loop. Dirty-region sweeps stay
// heap-ordered and sequential within each class; only the classes fan
// out. On a fallback the lowest-index class's reason is returned (the
// one the sequential loop would have hit first); the partially mutated
// state, deferred logs included, is discarded wholesale by the rebuild
// that follows every fallback.
func (ss *Session) applyDeltaParallel(frags, added, removed []*sessFrag, jobs int) (bool, string, int, int) {
	st := ss.st
	nw := jobs
	if nw > len(st.cls) {
		nw = len(st.cls)
	}
	type classOut struct {
		reason            string
		resolved, dirtyVs int
	}
	outs := make([]classOut, len(st.cls))
	for _, cs := range st.cls {
		cs.deferred = true
		cs.pendLo, cs.pendUp = cs.pendLo[:0], cs.pendUp[:0]
		cs.pendSCCs, cs.pendVars = 0, 0
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(st.cls) {
					return
				}
				r, res, dv := st.cls[ci].applyClassDelta(st, frags, added, removed)
				outs[ci] = classOut{r, res, dv}
			}
		}()
	}
	wg.Wait()
	for ci, cs := range st.cls {
		cs.deferred = false
		if outs[ci].reason != "" {
			return false, outs[ci].reason, 0, 0
		}
	}
	resolved, dirtyVars := 0, 0
	for ci, cs := range st.cls {
		for _, p := range cs.pendLo {
			st.lower[p.v] = st.lower[p.v]&^cs.class | p.val
		}
		for _, p := range cs.pendUp {
			st.upper[p.v] = st.upper[p.v]&^cs.tc | p.val
		}
		st.sccsCollapsed += cs.pendSCCs
		st.varsCollapsed += cs.pendVars
		resolved += outs[ci].resolved
		dirtyVars += outs[ci].dirtyVs
	}
	ss.fanWorkers, ss.fanClasses = nw, len(st.cls)
	return true, "", resolved, dirtyVars
}

// intraScan counts the edges inside multi-member components — the
// EdgesDropped stat when no upper sweep rides along to count them.
func intraScan(ncomp int, off, cTo, scc, members, mEnd []int32) int {
	dropped := 0
	prevEnd := int32(0)
	for c := 0; c < ncomp; c++ {
		mStart := prevEnd
		prevEnd = mEnd[c]
		if prevEnd-mStart < 2 {
			continue
		}
		for mi := mStart; mi < prevEnd; mi++ {
			u := members[mi]
			for e := off[u]; e < off[u+1]; e++ {
				if scc[cTo[e]] == int32(c) {
					dropped++
				}
			}
		}
	}
	return dropped
}
