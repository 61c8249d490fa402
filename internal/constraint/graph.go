package constraint

// Condensed constraint-graph engine.
//
// The solver and the Restrict projection both operate on the directed
// graph whose nodes are qualifier variables and whose edges are the
// variable-variable constraints κ1 ⊑ κ2 (each carrying a component
// mask). This file holds the shared graph machinery: CSR adjacency
// built in counting passes (no per-node slice growth), Tarjan's SCC
// algorithm with reverse-topological component numbering, and the
// mask-class partition that makes cycle collapse sound under masks.
//
// Masks and soundness. An edge κ1 ⊑ κ2 with mask M orders the two
// variables only on the components in M, so a ⊑-cycle forces equality
// only on the components carried by *every* edge of the cycle; masked
// cycles must not merge wholesale. Both consumers therefore start from
// the same partition (maskClasses): the lattice components are split
// into classes that every edge mask treats uniformly — each mask
// either contains a class entirely or is disjoint from it — so "the
// edges relating class c" is a well-defined unmasked subgraph.
//
// Solve uses the partition directly: the classes are disjoint and
// independent, so each class solves as its own subproblem. classAdj
// materializes the class's CSR adjacency over a dense local numbering
// of just the class's participating variables, one Tarjan pass
// collapses the class's cycles, and because components pop in reverse
// topological order the least and greatest fixpoints each reduce to a
// single linear sweep over the component numbering. Per-variable
// results are broadcast back to the participants; everything is
// proportional to the class's own variables and edges. The working
// arrays live in solveScratch on the System, so re-solves allocate
// nothing.
//
// Restrict needs one graph for all classes (its reachability pass
// propagates a per-component bitset through every class at once), so
// condense intersects the per-class SCC partitions: two variables
// share a condensed node only when they share an SCC in every class —
// mutually reachable on every lattice component, hence equal on every
// component in both the least and the greatest solution. Under that
// full equality, edges inside a component are tautological and are
// dropped, and buildCompGraph merges parallel edges between the same
// pair of components by OR-ing their masks (exact for both the join
// and the meet fixpoint). In the common case every edge carries the
// full mask, there is a single class, and condensation is one
// unfiltered Tarjan pass.
//
// Blame paths are unaffected by any of this: conflict traces run
// breadth-first over the original constraint list (see
// (*System).blame), so a path entering a collapsed component expands
// its internal hops constraint by constraint, deterministically,
// exactly as before condensation.

import "repro/internal/qual"

// SolveStats reports the size of the last solved system and how much
// the condensation step compressed it. Solve decomposes the system into
// one independent subproblem per mask class (see maskClasses) and
// condenses each; the condensation counters below are summed across the
// classes, counting only variables that participate in (are an endpoint
// of a ⊑-edge in) the class.
type SolveStats struct {
	// Vars and Constraints are the raw system size.
	Vars        int
	Constraints int
	// Components is the per-class participating-node count after
	// condensation, summed across mask classes.
	Components int
	// SCCsCollapsed counts condensed nodes that absorbed ≥2 variables;
	// VarsCollapsed is the total number of variable instances merged
	// away. Both are summed across mask classes.
	SCCsCollapsed int
	VarsCollapsed int
	// EdgesDropped counts variable-variable edge instances eliminated by
	// condensation: edges inside a component plus parallel edges merged
	// between the same pair of components, summed across mask classes.
	EdgesDropped int
	// MaskClasses is the number of lattice-component classes the edge
	// masks induced (1 when every edge carries the same mask).
	MaskClasses int
}

// maskClasses partitions the components of full into groups that every
// mask in masks treats uniformly: each returned class is a sub-mask of
// full, the classes are disjoint and cover full, and every input mask
// either contains a class entirely or is disjoint from it. Splitting is
// deterministic (masks in first-occurrence order, high bits first within
// a split).
func maskClasses(masks []qual.Elem, full qual.Elem) []qual.Elem {
	if full == 0 {
		return nil
	}
	classes := []qual.Elem{full}
	maxClasses := popcount(full)
	for _, m := range masks {
		if len(classes) >= maxClasses {
			break
		}
		split := false
		for _, c := range classes {
			if in := c & m; in != 0 && in != c {
				split = true
				break
			}
		}
		if !split {
			continue
		}
		next := make([]qual.Elem, 0, len(classes)+1)
		for _, c := range classes {
			in, out := c&m, c&^m
			if in != 0 {
				next = append(next, in)
			}
			if out != 0 {
				next = append(next, out)
			}
		}
		classes = next
	}
	return classes
}

func popcount(e qual.Elem) int {
	n := 0
	for v := uint64(e); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// distinctMasks collects the distinct edge masks in first-occurrence
// order, capped once every mask pattern must already have been seen.
func distinctMasks(mask []qual.Elem) []qual.Elem {
	var out []qual.Elem
	seen := make(map[qual.Elem]bool, 8)
	for _, m := range mask {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// tarjan computes the strongly-connected components of the CSR graph
// (off, to); when em is non-nil, only the edges whose mask intersects
// class are followed. Components are numbered in completion order,
// deterministically. The scratch arrays are caller-provided so repeated
// per-class runs reuse them; comp is the output (len n).
type tarjanScratch struct {
	index, low, stack []int32
	frames            []tframe
	// When members is non-nil, tarjan additionally records the variables
	// of each component contiguously in members, with mEnd[c] the end
	// offset of component c. Components pop in reverse topological
	// order: every edge leaving component c targets a component with a
	// smaller number, which is what lets the solver's fixpoints run as
	// single sweeps over the component numbering.
	members, mEnd []int32
}

type tframe struct {
	v, ei int32
}

// solveScratch holds every working array of the per-class solve passes.
// It lives on the System so that repeated Solve calls — scheme
// re-solves, incremental server updates — allocate nothing. Re-use
// invariants, maintained by the class loop in Solve: cur is zero and
// touched is false over all variables on entry to each class (classAdj
// re-zeroes cur over the participants it used, the broadcast loop
// resets the participants' touched flags); everything else is
// (re)initialized by its consumer.
type solveScratch struct {
	sc        *tarjanScratch
	scc       []int32
	lid, part []int32
	off, cur  []int32
	cTo       []int32
	touched   []bool
	cl, cu    []qual.Elem
	buckets   [][]int32
}

// ensureScratch grows (or first allocates) the scratch for n variables
// and m variable-variable edges. Growth replaces the arrays wholesale —
// fresh arrays satisfy the zero-value invariants by construction. The
// int32 arrays carve up one pointer-free slab (capped slices, so an
// append past a region's capacity reallocates instead of bleeding into
// its neighbor): many short-lived systems solve exactly once, and one
// slab instead of a dozen small arrays keeps their garbage cheap.
func (s *System) ensureScratch(n, m int) *solveScratch {
	w := s.scratch
	if w == nil {
		w = &solveScratch{}
		s.scratch = w
	}
	if len(w.scc) < n {
		slab := make([]int32, 10*n+1)
		grab := func(l, c int) []int32 {
			r := slab[:l:c]
			slab = slab[c:]
			return r
		}
		w.sc = &tarjanScratch{
			index:   grab(n, n),
			low:     grab(n, n),
			stack:   grab(0, n),
			frames:  make([]tframe, 0, 64),
			members: grab(n, n),
			mEnd:    grab(0, n),
		}
		w.scc = grab(n, n)
		w.lid = grab(n, n)
		w.part = grab(0, n)
		w.off = grab(n+1, n+1)
		w.cur = grab(n, n)
		w.touched = make([]bool, n)
		elems := make([]qual.Elem, 2*n)
		w.cl, w.cu = elems[:n:n], elems[n:]
	}
	if len(w.cTo) < m {
		w.cTo = make([]int32, m)
	}
	return w
}

// tarjanDone marks a finalized (already assigned to a component) node in
// the index array: it compares greater than any live discovery index, so
// the low-link update skips finalized targets with no separate on-stack
// bookkeeping.
const tarjanDone = int32(1) << 30

func tarjan(n int, off, to []int32, em []qual.Elem, class qual.Elem, sc *tarjanScratch, comp []int32) int {
	index, low := sc.index[:n], sc.low[:n]
	for i := range index {
		index[i] = -1
	}
	stack := sc.stack[:0]
	frames := sc.frames[:0]
	members, mEnd := sc.members, sc.mEnd[:0]
	var mPos int32
	var next int32
	ncomp := 0
	for root := int32(0); root < int32(n); root++ {
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
				if em != nil && em[ei]&class == 0 {
					continue
				}
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
					if members != nil {
						members[mPos] = w
						mPos++
					}
					if w == v {
						break
					}
				}
				if members != nil {
					mEnd = append(mEnd, mPos)
				}
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

// condense merges the per-class SCC partitions: two nodes share a
// condensed component iff they share an SCC in every mask class (and
// are therefore equal on every lattice component). It returns the
// node→component map, the component count, and the class count.
// Components are numbered in first-occurrence order over node ids,
// which is deterministic.
func condense(n int, eFrom, eTo []int32, eMask []qual.Elem, full qual.Elem) (comp []int32, ncomp, nclasses int) {
	comp = make([]int32, n)
	if len(eFrom) == 0 || full == 0 {
		for i := range comp {
			comp[i] = int32(i)
		}
		return comp, n, 0
	}
	classes := maskClasses(distinctMasks(eMask), full)
	m := len(eFrom)
	// One pointer-free slab backs every working array; the scheme-
	// simplification pipeline condenses thousands of small fragments, so
	// per-call allocation count matters more than peak size here.
	slab := make([]int32, 7*n+2*m+1)
	grab := func(l, c int) []int32 {
		r := slab[:l:c]
		slab = slab[c:]
		return r
	}
	// CSR offsets plus the edge permutation grouping edges by source, so
	// every per-class Tarjan pass scans the targets sequentially.
	off := grab(n+1, n+1)
	for _, k := range eFrom {
		off[k+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	perm := grab(m, m)
	cur := grab(n, n)
	copy(cur, off[:n])
	for i, k := range eFrom {
		perm[cur[k]] = int32(i)
		cur[k]++
	}
	to := grab(m, m)
	for j, e := range perm {
		to[j] = eTo[e]
	}
	sc := &tarjanScratch{
		index:  grab(n, n),
		low:    grab(n, n),
		stack:  grab(0, n),
		frames: make([]tframe, 0, 64),
	}
	if len(classes) == 1 {
		// Single class: every (nonzero) edge mask contains it, so no edge
		// filter is needed — one unmasked Tarjan pass, straight into comp.
		ncomp = tarjan(n, off, to, nil, 0, sc, comp)
	} else {
		em := make([]qual.Elem, m)
		for j, e := range perm {
			em[j] = eMask[e]
		}
		scc := grab(n, n)
		for ci, class := range classes {
			nscc := tarjan(n, off, to, em, class, sc, scc)
			if ci == 0 {
				copy(comp, scc)
				ncomp = nscc
				continue
			}
			// Intersect: nodes stay merged only if merged in this class too.
			merged := make(map[uint64]int32, ncomp)
			var next int32
			for v := 0; v < n; v++ {
				k := uint64(uint32(comp[v]))<<32 | uint64(uint32(scc[v]))
				id, ok := merged[k]
				if !ok {
					id = next
					next++
					merged[k] = id
				}
				comp[v] = id
			}
			ncomp = int(next)
		}
	}
	// Renumber components in first-occurrence order so the numbering
	// does not depend on Tarjan's completion order.
	renum := grab(ncomp, ncomp)
	for i := range renum {
		renum[i] = -1
	}
	var next int32
	for v := 0; v < n; v++ {
		if renum[comp[v]] < 0 {
			renum[comp[v]] = next
			next++
		}
		comp[v] = renum[comp[v]]
	}
	return comp, ncomp, len(classes)
}

// classAdj materializes the CSR adjacency of one mask class over a
// dense local numbering of the class's participating variables. The
// class's edges arrive pre-bucketed: buckets holds the edge-index lists
// of every distinct mask that contains the class (maskClasses
// guarantees a mask never splits a class). Variables are assigned local
// ids in order of first appearance (deterministic) and collected into
// part; touched[v] is left true for every participant and lid[v] holds
// its local id (valid only while touched[v] — the caller resets touched
// after use). Everything — the id assignment, the CSR build, and the
// downstream Tarjan/sweep passes sized by the returned count — is
// proportional to the class's own variables and edges, not to the whole
// system: with k analyses masking their constraints to disjoint
// components, the k classes together still visit each edge and each
// participating variable only once. off needs length ≥ npart+1, cur
// (which must be, and is left, zeroed over participants) length ≥
// npart, and to capacity for every kept edge.
func classAdj(eFrom, eTo []int32, buckets [][]int32, lid []int32, touched []bool, part, off, cur, to []int32) (int, []int32) {
	part = part[:0]
	add := func(v int32) int32 {
		if !touched[v] {
			touched[v] = true
			lid[v] = int32(len(part))
			part = append(part, v)
		}
		return lid[v]
	}
	for _, b := range buckets {
		for _, ei := range b {
			f := add(eFrom[ei])
			add(eTo[ei])
			cur[f]++
		}
	}
	np := len(part)
	off[0] = 0
	for i := 0; i < np; i++ {
		off[i+1] = off[i] + cur[i]
		cur[i] = off[i]
	}
	for _, b := range buckets {
		for _, ei := range b {
			f := lid[eFrom[ei]]
			to[cur[f]] = lid[eTo[ei]]
			cur[f]++
		}
	}
	for i := 0; i < np; i++ {
		cur[i] = 0
	}
	return np, part
}

// compGraph is the condensed CSR adjacency: nodes are components,
// self-edges are dropped, parallel edges are merged by OR-ing masks.
type compGraph struct {
	ncomp        int
	fOff, fTo    []int32
	fMask        []qual.Elem
	rOff, rTo    []int32
	rMask        []qual.Elem
	edgesDropped int
}

// buildCompGraph condenses the edge list (eFrom, eTo, eMask) through the
// comp map and materializes forward and reverse CSR adjacency.
func buildCompGraph(comp []int32, ncomp int, eFrom, eTo []int32, eMask []qual.Elem) *compGraph {
	g := &compGraph{ncomp: ncomp}
	// Count surviving edges per source component.
	cnt := make([]int32, ncomp+1)
	kept := 0
	for i := range eFrom {
		cu, cv := comp[eFrom[i]], comp[eTo[i]]
		if cu == cv {
			g.edgesDropped++
			continue
		}
		cnt[cu+1]++
		kept++
	}
	for i := 0; i < ncomp; i++ {
		cnt[i+1] += cnt[i]
	}
	// The working arrays and the retained CSR arrays share a slab each
	// (int32 and mask halves); the reverse arrays are sized by the merged
	// count w ≤ kept, so the slab bounds are known up front.
	slab := make([]int32, 2*kept+3*ncomp+1)
	grab := func(l, c int) []int32 {
		r := slab[:l:c]
		slab = slab[c:]
		return r
	}
	mslab := make([]qual.Elem, 2*kept)
	to := grab(kept, kept)
	mask := mslab[:kept:kept]
	mslab = mslab[kept:]
	cur := grab(ncomp, ncomp)
	copy(cur, cnt[:ncomp])
	for i := range eFrom {
		cu, cv := comp[eFrom[i]], comp[eTo[i]]
		if cu == cv {
			continue
		}
		to[cur[cu]] = cv
		mask[cur[cu]] = eMask[i]
		cur[cu]++
	}
	// Merge parallel edges in place, per source group, preserving
	// first-occurrence target order.
	slot := cur
	stamp := grab(ncomp, ncomp)
	for i := range stamp {
		stamp[i] = -1
	}
	g.fOff = grab(ncomp+1, ncomp+1)
	var w int32
	for u := 0; u < ncomp; u++ {
		g.fOff[u] = w
		for r := cnt[u]; r < cnt[u+1]; r++ {
			t := to[r]
			if stamp[t] == int32(u) {
				mask[slot[t]] |= mask[r]
				g.edgesDropped++
				continue
			}
			stamp[t] = int32(u)
			slot[t] = w
			to[w] = t
			mask[w] = mask[r]
			w++
		}
	}
	g.fOff[ncomp] = w
	g.fTo, g.fMask = to[:w], mask[:w]

	// Reverse CSR over the merged edges.
	rcnt := cnt
	for i := range rcnt {
		rcnt[i] = 0
	}
	for _, t := range g.fTo {
		rcnt[t+1]++
	}
	for i := 0; i < ncomp; i++ {
		rcnt[i+1] += rcnt[i]
	}
	g.rOff = rcnt
	g.rTo = grab(int(w), int(w))
	g.rMask = mslab[:w:w]
	rcur := stamp
	copy(rcur, rcnt[:ncomp])
	for u := 0; u < ncomp; u++ {
		for r := g.fOff[u]; r < g.fOff[u+1]; r++ {
			t := g.fTo[r]
			g.rTo[rcur[t]] = int32(u)
			g.rMask[rcur[t]] = g.fMask[r]
			rcur[t]++
		}
	}
	return g
}

// incomingCSR indexes, per variable, the constraints whose right side is
// that variable, in insertion order. It is the blame traversal's
// adjacency, built lazily on the first conflict.
type incomingCSR struct {
	off  []int32
	cons []int32
}

func buildIncomingCSR(cons []Constraint, n int) *incomingCSR {
	in := &incomingCSR{off: make([]int32, n+1)}
	for _, c := range cons {
		if c.R.isVar {
			in.off[c.R.v+1]++
		}
	}
	for i := 0; i < n; i++ {
		in.off[i+1] += in.off[i]
	}
	in.cons = make([]int32, in.off[n])
	cur := make([]int32, n)
	copy(cur, in.off[:n])
	for i, c := range cons {
		if c.R.isVar {
			in.cons[cur[c.R.v]] = int32(i)
			cur[c.R.v]++
		}
	}
	return in
}
