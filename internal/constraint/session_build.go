package constraint

// Session state construction (after a cold solve) and the delta path
// itself. See session.go for the overall design and invariants.

import (
	"sort"

	"repro/internal/qual"
)

// rebuild snapshots the retained state from a just-solved system: the
// per-class condensation (re-derived with a session-owned Tarjan pass
// over the fragments' edges — identical to the partition Solve used,
// since both consume the same edges under the same mask classes), the
// component adjacency with multiplicities, seed aggregates, and the
// solved values.
func (ss *Session) rebuild(sys *System, spans []FragmentSpan, okeys []string) {
	frags := make([]*sessFrag, len(spans))
	for i, s := range spans {
		frags[i] = extractFrag(okeys[i], sys.cons, s.Start, s.End)
	}
	st := &sessState{
		n: sys.n, nlive: sys.n,
		top: ss.set.Top(), full: ss.set.FullMask(),
		maskRef: make(map[qual.Elem]int),
	}
	for _, f := range frags {
		for _, m := range f.eMask {
			if st.maskRef[m] == 0 {
				st.distinct = append(st.distinct, m)
			}
			st.maskRef[m]++
		}
	}
	st.classes = maskClasses(st.distinct, st.full)
	st.lower = append([]qual.Elem(nil), sys.lower...)
	st.upper = append([]qual.Elem(nil), sys.upper...)
	for _, class := range st.classes {
		st.cls = append(st.cls, buildClassState(st, class, frags))
	}
	ss.st = st
	ss.frags = frags
	ss.byKey = make(map[string]*sessFrag, len(frags))
	for _, f := range frags {
		ss.byKey[f.key] = f
	}
}

func buildClassState(st *sessState, class qual.Elem, frags []*sessFrag) *classState {
	n := st.n
	cs := &classState{
		class: class, tc: st.top & class,
		edgeCnt: make(map[uint64]int32), intraCnt: make(map[uint64]int32),
	}
	cs.comp = make([]int32, n)
	for i := range cs.comp {
		cs.comp[i] = -1
	}
	cs.deg = make([]int32, n)

	// The class's edges across all fragments (a mask either contains
	// the class or is disjoint from it).
	var ef, et []int32
	for _, f := range frags {
		for i, m := range f.eMask {
			if m&class != 0 {
				ef = append(ef, f.eFrom[i])
				et = append(et, f.eTo[i])
			}
		}
	}

	// Dense local numbering of participants (first-appearance order,
	// matching classAdj), CSR adjacency, and Tarjan condensation: the
	// same reverse-topological component numbering Solve just used, so
	// key[c] = c<<40 reproduces its order with gaps for insertions.
	lid := make([]int32, n)
	isPart := make([]bool, n)
	var part []int32
	add := func(v int32) int32 {
		if !isPart[v] {
			isPart[v] = true
			lid[v] = int32(len(part))
			part = append(part, v)
		}
		return lid[v]
	}
	for i := range ef {
		add(ef[i])
		add(et[i])
	}
	np := len(part)
	ncomp := 0
	if np > 0 {
		off := make([]int32, np+1)
		for i := range ef {
			off[lid[ef[i]]+1]++
		}
		for i := 0; i < np; i++ {
			off[i+1] += off[i]
		}
		cur := make([]int32, np)
		copy(cur, off[:np])
		cTo := make([]int32, len(ef))
		for i := range ef {
			f := lid[ef[i]]
			cTo[cur[f]] = lid[et[i]]
			cur[f]++
		}
		scc := make([]int32, np)
		sc := &tarjanScratch{
			index: make([]int32, np), low: make([]int32, np),
			stack: make([]int32, 0, np), frames: make([]tframe, 0, 64),
			members: make([]int32, np), mEnd: make([]int32, 0, np),
		}
		ncomp = tarjan(np, off, cTo, nil, 0, sc, scc)
		cs.ncomp = ncomp
		cs.members = make([][]int32, ncomp)
		prev := int32(0)
		for c := 0; c < ncomp; c++ {
			ms := sc.members[prev:sc.mEnd[c]]
			prev = sc.mEnd[c]
			mem := make([]int32, len(ms))
			for i, l := range ms {
				mem[i] = part[l]
			}
			cs.members[c] = mem
			if len(mem) >= 2 {
				st.sccsCollapsed++
				st.varsCollapsed += len(mem) - 1
			}
		}
		cs.key = make([]int64, ncomp)
		for c := range cs.key {
			cs.key[c] = int64(c) << 40
		}
		cs.degSum = make([]int32, ncomp)
		cs.slo = make([]qual.Elem, ncomp)
		cs.sup = make([]qual.Elem, ncomp)
		cs.cl = make([]qual.Elem, ncomp)
		cs.cu = make([]qual.Elem, ncomp)
		for c := 0; c < ncomp; c++ {
			cs.sup[c] = cs.tc
		}
		cs.out = make([][]int32, ncomp)
		cs.in = make([][]int32, ncomp)
		for l, v := range part {
			cs.comp[v] = scc[l]
		}
	}
	// Every Tarjan component holds ≥1 edge endpoint, so all of them
	// participate; bound-only singletons created below do not.
	cs.participating = ncomp

	for i := range ef {
		u, v := ef[i], et[i]
		cs.deg[u]++
		cs.deg[v]++
		cu0, cv0 := cs.comp[u], cs.comp[v]
		cs.degSum[cu0]++
		cs.degSum[cv0]++
		if cu0 == cv0 {
			cs.intra++
			cs.intraCnt[packEdge(u, v)]++
			continue
		}
		k := packEdge(cu0, cv0)
		if cs.edgeCnt[k] == 0 {
			cs.out[cu0] = append(cs.out[cu0], cv0)
			cs.in[cv0] = append(cs.in[cv0], cu0)
		}
		cs.edgeCnt[k]++
	}

	// Seed aggregates, with the same keep filters as Solve; bounds on
	// unedged variables lazily create singleton components.
	for _, f := range frags {
		for i, v := range f.loVar {
			if seed := f.loElem[i] & class; seed != 0 {
				cs.slo[cs.compOf(v)] |= seed
			}
		}
		for i, v := range f.upVar {
			if f.upMask[i]&^f.upC[i]&cs.tc == 0 {
				continue
			}
			cs.sup[cs.compOf(v)] &= f.upC[i] | ^(f.upMask[i] & class)
		}
	}

	// Component values from the just-computed solution (members of a
	// component are equal on the class, so any member serves).
	for c, mem := range cs.members {
		v := mem[0]
		cs.cl[c] = st.lower[v] & class
		cs.cu[c] = st.upper[v] & cs.tc
	}
	return cs
}

// applyDelta runs the delta path over every class. On any fallback it
// returns ok=false with the reason; the caller then solves cold and
// rebuilds, discarding whatever this partially mutated.
func (ss *Session) applyDelta(sys *System, frags, added, removed []*sessFrag) (ok bool, reason string, resolved, dirtyVars int) {
	st := ss.st

	// The mask-class partition must survive the edit: retire removed
	// edge masks, admit added ones, and recompute the partition. A
	// changed partition re-shapes every per-class structure — cold
	// solve territory.
	for _, f := range removed {
		for _, m := range f.eMask {
			st.maskRef[m]--
		}
	}
	var dis []qual.Elem
	inDis := make(map[qual.Elem]bool, len(st.distinct))
	for _, m := range st.distinct {
		if st.maskRef[m] > 0 {
			dis = append(dis, m)
			inDis[m] = true
		}
	}
	for _, f := range added {
		for _, m := range f.eMask {
			st.maskRef[m]++
			if !inDis[m] {
				dis = append(dis, m)
				inDis[m] = true
			}
		}
	}
	st.distinct = dis
	if !samePartition(maskClasses(dis, st.full), st.classes) {
		return false, "mask-classes-changed", 0, 0
	}

	// Grow the per-variable arrays to the new system size; shrunken
	// systems keep the high-water arrays (stale variables return to
	// their default values when their fragments' seeds and edges are
	// retired below).
	if sys.n > st.n {
		for i := st.n; i < sys.n; i++ {
			st.lower = append(st.lower, 0)
			st.upper = append(st.upper, st.top)
		}
		for _, cs := range st.cls {
			for i := st.n; i < sys.n; i++ {
				cs.comp = append(cs.comp, -1)
				cs.deg = append(cs.deg, 0)
			}
		}
		st.n = sys.n
	}
	st.nlive = sys.n

	for _, cs := range st.cls {
		r, res, dv := cs.applyClassDelta(st, frags, added, removed)
		if r != "" {
			return false, r, 0, 0
		}
		resolved += res
		dirtyVars += dv
	}
	return true, "", resolved, dirtyVars
}

// applyClassDelta retires the removed fragments' edges and seeds from
// one class, admits the added ones (keying newly edged components into
// the topological order), recomputes the affected seed aggregates, and
// re-runs both fixpoint sweeps over the dirty region. A non-empty
// reason means the class could not absorb the edit.
func (cs *classState) applyClassDelta(st *sessState, frags, added, removed []*sessFrag) (reason string, resolved, dirtyVars int) {
	dirtyLo, dirtyUp := newDirtySet(), newDirtySet()
	seedLo, seedUp := newDirtySet(), newDirtySet()

	// Removals. An edge inside a multi-variable component may be what
	// holds the SCC together, but deciding that is deferred: the edit
	// usually re-adds the same edge from the replacement fragment (an
	// edited body re-derives its cycles), so the pair counts are checked
	// only after the additions below. (A singleton cannot carry an intra
	// edge: AddMasked rejects self-loops.)
	var pendIntra []uint64
	for _, f := range removed {
		for i, m := range f.eMask {
			if m&cs.class == 0 {
				continue
			}
			u, v := f.eFrom[i], f.eTo[i]
			cu0, cv0 := cs.comp[u], cs.comp[v]
			if cu0 == cv0 {
				vk := packEdge(u, v)
				cs.intraCnt[vk]--
				pendIntra = append(pendIntra, vk)
				cs.intra--
				cs.deg[u]--
				cs.deg[v]--
				cs.degSum[cu0] -= 2
				if cs.degSum[cu0] == 0 {
					cs.participating--
				}
				continue
			}
			k := packEdge(cu0, cv0)
			cs.edgeCnt[k]--
			if cs.edgeCnt[k] == 0 {
				delete(cs.edgeCnt, k)
				cs.out[cu0] = removeNeighbor(cs.out[cu0], cv0)
				cs.in[cv0] = removeNeighbor(cs.in[cv0], cu0)
				dirtyUp.add(cu0)
				dirtyLo.add(cv0)
			}
			cs.deg[u]--
			cs.deg[v]--
			cs.degSum[cu0]--
			if cs.degSum[cu0] == 0 {
				cs.participating--
			}
			cs.degSum[cv0]--
			if cs.degSum[cv0] == 0 {
				cs.participating--
			}
		}
		for i, v := range f.loVar {
			if seed := f.loElem[i] & cs.class; seed != 0 {
				seedLo.add(cs.comp[v])
			}
		}
		for i, v := range f.upVar {
			if f.upMask[i]&^f.upC[i]&cs.tc == 0 {
				continue
			}
			seedUp.add(cs.comp[v])
		}
	}

	// Additions, phase 1: create components for newly touched variables
	// and collect the inter-component edges for key assignment.
	var inter [][2]int32
	for _, f := range added {
		for i, m := range f.eMask {
			if m&cs.class == 0 {
				continue
			}
			cu0 := cs.compOf(f.eFrom[i])
			cv0 := cs.compOf(f.eTo[i])
			if cu0 != cv0 {
				inter = append(inter, [2]int32{cu0, cv0})
			}
		}
	}

	// Phase 2: condense cycles among the freshly edged components and
	// key them into the retained topological order, sinks first; then
	// require every added edge to strictly decrease the key — the
	// invariant that keeps the retained order topological and the
	// graph acyclic. Newly merged components must have their seeds and
	// values rebuilt.
	r, reps := cs.assignKeys(st, inter)
	if r != "" {
		return r, 0, 0
	}
	for _, c := range reps {
		seedLo.add(c)
		seedUp.add(c)
	}

	// Phase 3: apply the added edges and seed marks.
	for _, f := range added {
		for i, m := range f.eMask {
			if m&cs.class == 0 {
				continue
			}
			u, v := f.eFrom[i], f.eTo[i]
			cu0, cv0 := cs.comp[u], cs.comp[v]
			cs.deg[u]++
			cs.deg[v]++
			if cs.degSum[cu0] == 0 {
				cs.participating++
			}
			cs.degSum[cu0]++
			if cu0 == cv0 {
				cs.degSum[cu0]++
				cs.intra++
				cs.intraCnt[packEdge(u, v)]++
				continue
			}
			if cs.degSum[cv0] == 0 {
				cs.participating++
			}
			cs.degSum[cv0]++
			k := packEdge(cu0, cv0)
			if cs.edgeCnt[k] == 0 {
				cs.out[cu0] = append(cs.out[cu0], cv0)
				cs.in[cv0] = append(cs.in[cv0], cu0)
				dirtyUp.add(cu0)
				dirtyLo.add(cv0)
			}
			cs.edgeCnt[k]++
		}
		for i, v := range f.loVar {
			if seed := f.loElem[i] & cs.class; seed != 0 {
				seedLo.add(cs.compOf(v))
			}
		}
		for i, v := range f.upVar {
			if f.upMask[i]&^f.upC[i]&cs.tc == 0 {
				continue
			}
			seedUp.add(cs.compOf(v))
		}
	}

	// The deferred SCC-integrity check: every intra-component variable
	// pair touched by a removal must still carry at least one edge, or
	// the component's strong connectivity is in question and only a
	// cold re-condensation can answer it.
	for _, vk := range pendIntra {
		if cs.intraCnt[vk] <= 0 {
			return "scc-edge-removed", 0, 0
		}
	}

	// Recompute the dirty seed aggregates from scratch: one linear scan
	// over every fragment's bound entries, contributions filtered to
	// the marked components.
	for _, c := range seedLo.list {
		cs.slo[c] = 0
	}
	for _, c := range seedUp.list {
		cs.sup[c] = cs.tc
	}
	if len(seedLo.list) > 0 || len(seedUp.list) > 0 {
		for _, f := range frags {
			for i, v := range f.loVar {
				seed := f.loElem[i] & cs.class
				if seed == 0 {
					continue
				}
				if c := cs.comp[v]; seedLo.mark[c] {
					cs.slo[c] |= seed
				}
			}
			for i, v := range f.upVar {
				if f.upMask[i]&^f.upC[i]&cs.tc == 0 {
					continue
				}
				if c := cs.comp[v]; seedUp.mark[c] {
					cs.sup[c] &= f.upC[i] | ^(f.upMask[i] & cs.class)
				}
			}
		}
	}
	for _, c := range seedLo.list {
		dirtyLo.add(c)
	}
	for _, c := range seedUp.list {
		dirtyUp.add(c)
	}

	resolved, dirtyVars = cs.sweep(st, dirtyLo, dirtyUp)
	return "", resolved, dirtyVars
}

// assignKeys slots the endpoint components of the added edges into the
// retained topological order. Components that currently carry no edges
// (degSum == 0) are "free": their keys carry no retained order and may
// move. A cycle among the added edges is not automatically a fallback:
// the local subgraph over the touched components is condensed with a
// Tarjan pass — exactly the SCCs a cold solve would find among these
// edges — and each cycle group is merged into one component. A group of
// free components merges into its first member and is keyed as one
// node; a group threading exactly one anchored (edged, keyed) component
// absorbs the free members into it, keeping its key — the shape of a
// new function forming pointer-invariance cycles with retained code. A
// cycle binding two anchored components would bend the retained order
// between them, as would a cycle closed through retained edges the
// local pass cannot see; the former falls back as "anchored-cycle", the
// latter surfaces in the final strict-decrease check ("topo-order").
// Returns the merged representatives so the caller can rebuild their
// seeds and values.
func (cs *classState) assignKeys(st *sessState, inter [][2]int32) (string, []int32) {
	if len(inter) == 0 {
		return "", nil
	}
	// Dense local numbering of every component an added edge touches.
	nodeIdx := make(map[int32]int32)
	var nodes []int32
	for _, e := range inter {
		for _, c := range e {
			if _, ok := nodeIdx[c]; !ok {
				nodeIdx[c] = int32(len(nodes))
				nodes = append(nodes, c)
				if cs.degSum[c] == 0 {
					cs.key[c] = keyUnset // free: no retained order pins it
				}
			}
		}
	}
	var merged map[int32]int32
	rep := func(c int32) int32 {
		if r, ok := merged[c]; ok {
			return r
		}
		return c
	}
	var reps []int32

	// Condense the local subgraph. Tarjan numbers its components in
	// reverse topological order (every edge targets a lower number), so
	// walking groups in increasing order visits sinks first — each group
	// sees its downstream keys already assigned.
	nn := len(nodes)
	off := make([]int32, nn+1)
	for _, e := range inter {
		off[nodeIdx[e[0]]+1]++
	}
	for i := 0; i < nn; i++ {
		off[i+1] += off[i]
	}
	cur := make([]int32, nn)
	copy(cur, off[:nn])
	nTo := make([]int32, off[nn])
	for _, e := range inter {
		iu := nodeIdx[e[0]]
		nTo[cur[iu]] = nodeIdx[e[1]]
		cur[iu]++
	}
	scc := make([]int32, nn)
	sc := &tarjanScratch{
		index: make([]int32, nn), low: make([]int32, nn),
		stack: make([]int32, 0, nn), frames: make([]tframe, 0, 64),
		members: make([]int32, nn), mEnd: make([]int32, 0, nn),
	}
	ng := tarjan(nn, off, nTo, nil, 0, sc, scc)

	prev := int32(0)
	groups := make([][]int32, ng)
	for g := 0; g < ng; g++ {
		ms := sc.members[prev:sc.mEnd[g]]
		prev = sc.mEnd[g]
		grp := make([]int32, len(ms))
		for i, l := range ms {
			grp[i] = nodes[l]
		}
		groups[g] = grp
		if len(grp) < 2 {
			continue
		}
		// Pick the representative: the group's sole anchored component,
		// or its first member when all are free.
		r := int32(-1)
		for _, c := range grp {
			if cs.degSum[c] > 0 {
				if r >= 0 {
					return "anchored-cycle", nil
				}
				r = c
			}
		}
		if r < 0 {
			r = grp[0]
		}
		// Collapse-stat deltas match what a cold Tarjan pass would have
		// counted for the union: components already multi-member were
		// already counted once each.
		multi, total, totalMulti := 0, 0, 0
		for _, c := range grp {
			m := len(cs.members[c])
			total += m
			if m >= 2 {
				multi++
				totalMulti += m
			}
		}
		// Merge into the representative: absorbed components become
		// unreferenced ghosts, their variables re-point at the
		// representative, and the representative's current value is
		// broadcast so every member agrees before the sweep (which only
		// re-broadcasts on change).
		if merged == nil {
			merged = make(map[int32]int32)
		}
		for _, b := range grp {
			if b == r {
				continue
			}
			merged[b] = r
			for _, v := range cs.members[b] {
				cs.comp[v] = r
				st.lower[v] = st.lower[v]&^cs.class | cs.cl[r]
				st.upper[v] = st.upper[v]&^cs.tc | cs.cu[r]
			}
			cs.members[r] = append(cs.members[r], cs.members[b]...)
			cs.members[b] = nil
		}
		st.sccsCollapsed += 1 - multi
		st.varsCollapsed += (total - 1) - (totalMulti - multi)
		reps = append(reps, r)
	}

	// Key each still-unkeyed group between its already-keyed neighbors.
	for g := 0; g < ng; g++ {
		c := rep(groups[g][0])
		if cs.key[c] != keyUnset {
			continue
		}
		var lowB, highB int64
		hasLow, hasHigh := false, false
		for _, e := range inter {
			ru, rv := rep(e[0]), rep(e[1])
			if ru == rv {
				continue
			}
			if ru == c && cs.key[rv] != keyUnset {
				if !hasLow || cs.key[rv] > lowB {
					lowB = cs.key[rv]
				}
				hasLow = true
			}
			if rv == c && cs.key[ru] != keyUnset {
				if !hasHigh || cs.key[ru] < highB {
					highB = cs.key[ru]
				}
				hasHigh = true
			}
		}
		switch {
		case hasLow && hasHigh:
			if highB-lowB < 2 {
				return "key-gap-exhausted", nil
			}
			cs.key[c] = lowB + (highB-lowB)/2
		case hasLow:
			cs.key[c] = lowB + keyStride
		case hasHigh:
			cs.key[c] = highB - keyStride
		default:
			cs.key[c] = 0
		}
	}
	for _, e := range inter {
		ru, rv := rep(e[0]), rep(e[1])
		if ru != rv && cs.key[ru] <= cs.key[rv] {
			return "topo-order", nil
		}
	}
	return "", reps
}

// sweep re-runs both fixpoints over the dirty components, in
// topological-key order with early cutoff: a popped component's value
// is recomputed from its (up-to-date) neighbors, and only a changed
// value re-broadcasts to its member variables and enqueues the
// downstream side. The lower sweep walks keys descending (bounds flow
// with the edges), the upper sweep ascending (bounds gather against
// them); both mirror the broadcast formulas of the cold class loop.
func (cs *classState) sweep(st *sessState, dirtyLo, dirtyUp *dirtySet) (resolved, dirtyVars int) {
	if len(dirtyLo.list) > 0 {
		loBefore := func(a, b int32) bool {
			if cs.key[a] != cs.key[b] {
				return cs.key[a] > cs.key[b]
			}
			return a > b
		}
		inHeap := make([]bool, cs.ncomp)
		h := make([]int32, 0, len(dirtyLo.list))
		for _, c := range dirtyLo.list {
			if !inHeap[c] {
				inHeap[c] = true
				h = heapPush(h, c, loBefore)
			}
		}
		for len(h) > 0 {
			var c int32
			c, h = heapPop(h, loBefore)
			inHeap[c] = false
			nv := cs.slo[c]
			for _, p := range cs.in[c] {
				nv |= cs.cl[p]
			}
			resolved++
			if nv == cs.cl[c] {
				continue
			}
			cs.cl[c] = nv
			for _, v := range cs.members[c] {
				st.lower[v] = st.lower[v]&^cs.class | nv
			}
			dirtyVars += len(cs.members[c])
			for _, w := range cs.out[c] {
				if !inHeap[w] {
					inHeap[w] = true
					h = heapPush(h, w, loBefore)
				}
			}
		}
	}
	if len(dirtyUp.list) > 0 {
		upBefore := func(a, b int32) bool {
			if cs.key[a] != cs.key[b] {
				return cs.key[a] < cs.key[b]
			}
			return a < b
		}
		inHeap := make([]bool, cs.ncomp)
		h := make([]int32, 0, len(dirtyUp.list))
		for _, c := range dirtyUp.list {
			if !inHeap[c] {
				inHeap[c] = true
				h = heapPush(h, c, upBefore)
			}
		}
		for len(h) > 0 {
			var c int32
			c, h = heapPop(h, upBefore)
			inHeap[c] = false
			nv := cs.sup[c]
			for _, w := range cs.out[c] {
				nv &= cs.cu[w]
			}
			resolved++
			if nv == cs.cu[c] {
				continue
			}
			cs.cu[c] = nv
			for _, v := range cs.members[c] {
				st.upper[v] = st.upper[v]&^cs.tc | nv
			}
			dirtyVars += len(cs.members[c])
			for _, p := range cs.in[c] {
				if !inHeap[p] {
					inHeap[p] = true
					h = heapPush(h, p, upBefore)
				}
			}
		}
	}
	return resolved, dirtyVars
}

// dirtySet is an order-preserving deduplicated component set; the
// deterministic insertion order keeps every delta pass reproducible.
type dirtySet struct {
	list []int32
	mark map[int32]bool
}

func newDirtySet() *dirtySet { return &dirtySet{mark: make(map[int32]bool)} }

func (d *dirtySet) add(c int32) {
	if !d.mark[c] {
		d.mark[c] = true
		d.list = append(d.list, c)
	}
}

func removeNeighbor(list []int32, x int32) []int32 {
	for i, y := range list {
		if y == x {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func samePartition(a, b []qual.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]qual.Elem(nil), a...)
	bs := append([]qual.Elem(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// heapPush and heapPop implement a binary heap on a plain slice;
// before(a, b) reports whether a pops ahead of b.
func heapPush(h []int32, x int32, before func(a, b int32) bool) []int32 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []int32, before func(a, b int32) bool) (int32, []int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && before(h[l], h[m]) {
			m = l
		}
		if r < len(h) && before(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}
