package constraint

// Delta re-solve engine.
//
// A Session retains the solved shape of a constraint system — the
// per-mask-class condensation, its topological order, the component
// seed aggregates and fixpoint values — across solves, and re-solves
// only the region downstream of a change. The unit of change is a
// *fragment*: a contiguous, content-addressed run of the system's
// constraint list (in practice one function body's constraints, keyed
// by the summary fingerprints constinfer already computes). Each call
// hands the session a freshly built System plus its fragment spans;
// the session diffs the span keys against the previous call, removes
// the vanished fragments' edges and bounds from the retained graph,
// adds the new ones, and re-runs the two fixpoint sweeps over just the
// dirty components, in topological-key order with early cutoff.
//
// Key invariant: every retained inter-component edge strictly
// decreases the component's topological key. Edge additions that would
// violate it (or any structural change the condensation cannot absorb
// — an edge removed from inside a multi-variable SCC, a cycle among
// new components, a change to the mask-class partition) abandon the
// delta and fall back to a cold Solve, after which the retained state
// is rebuilt from scratch. Correctness therefore never depends on the
// delta path recognizing a case: anything it cannot prove it can
// update, it recomputes.
//
// The contract with the caller: a reused fragment key promises the
// fragment's constraint content is byte-identical to the previous
// call, *including variable ids*. (Diagnostics print κ ids, so
// identical output requires identical numbering; the driver layer
// bakes the variable base into its keys so a shifted fragment
// self-invalidates.) Fragment *positions* may move freely — keys, not
// offsets, identify a fragment.
//
// The computed solutions, stats counters, and Unsat reports (blame
// paths included) are byte-identical to a cold Solve of the same
// system; the delta oracle in incr_stress_test.go holds the engine to
// that under randomized edit scripts.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/qual"
)

// FragmentSpan labels the half-open constraint range [Start, End) of a
// system as one content-addressed fragment. Spans passed to a Session
// must be sorted, contiguous, and cover the whole constraint list.
type FragmentSpan struct {
	Key        string
	Start, End int
}

// DeltaStats describes what the last Session solve did.
type DeltaStats struct {
	// Applied reports whether the delta path ran; when false, Fallback
	// names why the session solved cold ("first-solve" on the priming
	// call).
	Applied  bool
	Fallback string
	// Fragment diff of the last call.
	FragsReused, FragsAdded, FragsRemoved int
	// Dirty region of the last delta: condensed components re-evaluated
	// across both sweeps, and variables whose solution was rebroadcast.
	ResolvedSCCs int
	DirtyVars    int
}

// Session retains solver state between solves of successive versions
// of a constraint system. It is not safe for concurrent use.
type Session struct {
	set   *qual.Set
	frags []*sessFrag          // current fragments, span order
	byKey map[string]*sessFrag // occurrence-disambiguated key -> fragment
	st    *sessState           // retained graph state; nil before the first solve

	hits, fallbacks int
	last            DeltaStats
}

// SetSolveJobs is accepted and ignored: the solve is sequential.
// No effect; removed next round.
func (ss *Session) SetSolveJobs(int) {}

// NewSession creates an empty session over the qualifier set. Every
// System solved through the session must be defined over the same set.
func NewSession(set *qual.Set) *Session {
	return &Session{set: set, byKey: make(map[string]*sessFrag)}
}

// Delta reports what the last Solve did.
func (ss *Session) Delta() DeltaStats { return ss.last }

// sessFrag is one fragment's constraints, pre-classified exactly the
// way Solve's edge-extraction cache classifies them (same filters), in
// global variable ids. start/end track the fragment's current position
// in the constraint list; upOff/ccOff are fragment-relative constraint
// offsets so violations map back to absolute indices at any position.
type sessFrag struct {
	key        string
	start, end int

	eFrom, eTo []int32
	eMask      []qual.Elem
	loVar      []int32
	loElem     []qual.Elem
	upVar      []int32
	upC        []qual.Elem
	upMask     []qual.Elem
	upOff      []int32
	ccOff      []int32
}

func extractFrag(key string, cons []Constraint, start, end int) *sessFrag {
	f := &sessFrag{key: key, start: start, end: end}
	for i := start; i < end; i++ {
		c := &cons[i]
		switch {
		case c.L.isVar && c.R.isVar:
			f.eFrom = append(f.eFrom, int32(c.L.v))
			f.eTo = append(f.eTo, int32(c.R.v))
			f.eMask = append(f.eMask, c.Mask)
		case !c.L.isVar && c.R.isVar:
			if le := c.L.c & c.Mask; le != 0 {
				f.loVar = append(f.loVar, int32(c.R.v))
				f.loElem = append(f.loElem, le)
			}
		case c.L.isVar:
			if c.Mask&^c.R.c != 0 {
				f.upVar = append(f.upVar, int32(c.L.v))
				f.upC = append(f.upC, c.R.c)
				f.upMask = append(f.upMask, c.Mask)
				f.upOff = append(f.upOff, int32(i-start))
			}
		default:
			f.ccOff = append(f.ccOff, int32(i-start))
		}
	}
	return f
}

// keyUnset marks a component whose topological key is unassigned: the
// component has no inter-component edges, so any key would do, and the
// next edge it gains picks one that fits the order.
const keyUnset = math.MinInt64

// keyStride is the headroom left next to an existing key when a newly
// edged component is keyed relative to it, so chains of new components
// fit between two old ones without an immediate fallback.
const keyStride = 1 << 20

// sessState is the retained graph: the per-class condensations, the
// session-owned solution arrays (mutated in place by deltas), and the
// condensation counters that stay invariant while the SCC partition
// does.
type sessState struct {
	n     int // allocated length of the per-variable arrays (high-water)
	nlive int // variable count of the last solved system
	top   qual.Elem
	full  qual.Elem

	maskRef  map[qual.Elem]int // edge-instance refcount per distinct mask
	distinct []qual.Elem       // masks with refcount > 0, first-seen order
	classes  []qual.Elem
	cls      []*classState

	lower, upper []qual.Elem

	sccsCollapsed, varsCollapsed int // invariant absent a fallback
}

// classState is one mask class's condensation. Components never merge
// or split on the delta path (those cases fall back), so members,
// sccsCollapsed-relevant sizes, and the key order are stable; only
// edge counts, seeds, and values move.
type classState struct {
	class, tc qual.Elem

	comp []int32 // var -> component, -1 until the var is bounded or edged
	deg  []int32 // var -> incident edge instances in this class

	ncomp   int
	members [][]int32
	key     []int64
	degSum  []int32 // component -> sum of member degrees
	slo     []qual.Elem
	sup     []qual.Elem
	cl      []qual.Elem
	cu      []qual.Elem

	edgeCnt map[uint64]int32 // packed (from,to) -> inter-component multiplicity
	out     [][]int32        // dedup adjacency (present iff count > 0)
	in      [][]int32

	// intraCnt counts intra-component edges per packed *variable* pair.
	// A fragment swap that removes and re-adds the same SCC edges (the
	// shape of re-analyzing an edited function body) keeps every pair's
	// count positive and stays on the delta path; only a pair dropping
	// to zero questions the component's strong connectivity.
	intraCnt map[uint64]int32

	intra         int // intra-component edge instances (the EdgesDropped stat)
	participating int // components with degSum > 0 (the Components stat)
}

func packEdge(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// compOf returns v's component, creating a fresh unkeyed singleton the
// first time a bound or edge touches the variable.
func (cs *classState) compOf(v int32) int32 {
	c := cs.comp[v]
	if c < 0 {
		c = int32(cs.ncomp)
		cs.ncomp++
		cs.comp[v] = c
		cs.members = append(cs.members, []int32{v})
		cs.key = append(cs.key, keyUnset)
		cs.degSum = append(cs.degSum, 0)
		cs.slo = append(cs.slo, 0)
		cs.sup = append(cs.sup, cs.tc)
		cs.cl = append(cs.cl, 0)
		cs.cu = append(cs.cu, cs.tc)
		cs.out = append(cs.out, nil)
		cs.in = append(cs.in, nil)
	}
	return c
}

// Solve solves sys through the session; see SolveContext.
func (ss *Session) Solve(sys *System, spans []FragmentSpan) []*Unsat {
	return ss.SolveContext(context.Background(), sys, spans)
}

// SolveContext solves sys, reusing the retained state when the
// fragment diff permits and falling back to sys.SolveContext
// otherwise. sys must be freshly built for this call (its constraints
// the concatenation of spans, over the session's qualifier set); on
// return it is solved — Lower/Upper/Stats behave exactly as after a
// cold Solve, with stats carrying the session's delta counters.
//
// When the context carries an obs.Tracer, one "solve.delta" span
// records the fragment diff and either the dirty region or the
// fallback reason. The span is opened and closed on this sequential
// call path only, so traces stay deterministic.
func (ss *Session) SolveContext(ctx context.Context, sys *System, spans []FragmentSpan) []*Unsat {
	if !sameQualSet(sys.set, ss.set) {
		panic("constraint: Session.Solve with a System over a different qualifier set")
	}
	validateSpans(spans, len(sys.cons))
	tr := obs.FromContext(ctx)
	sp := tr.Start("solver", "solve.delta")

	// Disambiguate duplicate keys by occurrence so identical fragments
	// diff positionally.
	seen := make(map[string]int, len(spans))
	okeys := make([]string, len(spans))
	for i, s := range spans {
		k := seen[s.Key]
		seen[s.Key] = k + 1
		okeys[i] = fmt.Sprintf("%s\x00%d", s.Key, k)
	}

	var kept, added []*sessFrag
	var addedIdx []int
	reused := 0
	ok := ss.st != nil
	reason := ""
	if ss.st == nil {
		reason = "first-solve"
	}
	newFrags := make([]*sessFrag, len(spans))
	for i, s := range spans {
		if f := ss.byKey[okeys[i]]; f != nil && ok {
			if f.end-f.start != s.End-s.Start {
				// A reused key with different content breaks the caller
				// contract; solve cold rather than corrupt the state.
				ok, reason = false, "span-content-changed"
			}
			f.start, f.end = s.Start, s.End
			newFrags[i] = f
			kept = append(kept, f)
			reused++
			continue
		}
		newFrags[i] = nil
		addedIdx = append(addedIdx, i)
	}
	var removed []*sessFrag
	if ok {
		inNew := make(map[*sessFrag]bool, len(kept))
		for _, f := range kept {
			inNew[f] = true
		}
		for _, f := range ss.frags {
			if !inNew[f] {
				removed = append(removed, f)
			}
		}
		for _, i := range addedIdx {
			f := extractFrag(okeys[i], sys.cons, spans[i].Start, spans[i].End)
			newFrags[i] = f
			added = append(added, f)
		}
	}

	resolved, dirtyVars := 0, 0
	if ok {
		ok, reason, resolved, dirtyVars = ss.applyDelta(sys, newFrags, added, removed)
	}

	var unsat []*Unsat
	if ok {
		ss.hits++
		ss.frags = newFrags
		ss.byKey = make(map[string]*sessFrag, len(newFrags))
		for _, f := range newFrags {
			ss.byKey[f.key] = f
		}
		stats := ss.assembleStats(sys, resolved, dirtyVars)
		st := ss.st
		lower := append([]qual.Elem(nil), st.lower[:sys.n]...)
		upper := append([]qual.Elem(nil), st.upper[:sys.n]...)
		sys.setSolution(lower, upper, stats)
		unsat = sys.buildUnsats(ss.scanViolations())
	} else {
		if ss.st != nil {
			ss.fallbacks++
		}
		unsat = sys.SolveContext(ctx)
		ss.rebuild(sys, spans, okeys)
		sys.stats.DeltaHits = ss.hits
		sys.stats.DeltaFallbacks = ss.fallbacks
	}

	ss.last = DeltaStats{
		Applied:      ok,
		Fallback:     reason,
		FragsReused:  reused,
		FragsAdded:   len(spans) - reused,
		FragsRemoved: len(removed),
		ResolvedSCCs: resolved,
		DirtyVars:    dirtyVars,
	}
	sp.SetAttr(
		obs.Int("frags_reused", ss.last.FragsReused),
		obs.Int("frags_added", ss.last.FragsAdded),
		obs.Int("frags_removed", ss.last.FragsRemoved),
		obs.Int("resolved_sccs", resolved),
		obs.Int("dirty_vars", dirtyVars),
		obs.String("fallback", reason),
	)
	sp.End()
	return unsat
}

// sameQualSet compares qualifier sets structurally: successive runs
// (and server requests) build fresh but identical sets, and the
// retained state only depends on the lattice's shape, not the pointer.
func sameQualSet(a, b *qual.Set) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	qa, qb := a.Qualifiers(), b.Qualifiers()
	for i := range qa {
		if qa[i] != qb[i] {
			return false
		}
	}
	return true
}

func validateSpans(spans []FragmentSpan, ncons int) {
	at := 0
	for _, s := range spans {
		if s.Start != at || s.End < s.Start {
			panic(fmt.Sprintf("constraint: fragment spans not contiguous at %d (got [%d,%d))", at, s.Start, s.End))
		}
		at = s.End
	}
	if at != ncons {
		panic(fmt.Sprintf("constraint: fragment spans cover [0,%d), system has %d constraints", at, ncons))
	}
}

// scanViolations checks every retained up-entry and constant pair
// against the current least solution, exactly as Solve's final scan
// does, returning absolute constraint indices in ascending order.
func (ss *Session) scanViolations() []int32 {
	st := ss.st
	var viol []int32
	cc := false
	for _, f := range ss.frags {
		for i, v := range f.upVar {
			if !qual.LeqMask(st.lower[v], f.upC[i], f.upMask[i]) {
				viol = append(viol, int32(f.start)+f.upOff[i])
			}
		}
		for _, off := range f.ccOff {
			viol = append(viol, int32(f.start)+off)
			cc = true
		}
	}
	if cc {
		sort.Slice(viol, func(i, j int) bool { return viol[i] < viol[j] })
	}
	return viol
}

// assembleStats rebuilds SolveStats from the retained counters; all
// classic fields match what a cold Solve of the same system reports.
func (ss *Session) assembleStats(sys *System, resolved, dirtyVars int) SolveStats {
	st := ss.st
	stats := SolveStats{
		Vars:           sys.n,
		Constraints:    len(sys.cons),
		MaskClasses:    len(st.classes),
		SCCsCollapsed:  st.sccsCollapsed,
		VarsCollapsed:  st.varsCollapsed,
		DeltaHits:      ss.hits,
		DeltaFallbacks: ss.fallbacks,
		ResolvedSCCs:   resolved,
		DirtyVars:      dirtyVars,
	}
	for _, cs := range st.cls {
		stats.Components += cs.participating
		stats.EdgesDropped += cs.intra
	}
	return stats
}
