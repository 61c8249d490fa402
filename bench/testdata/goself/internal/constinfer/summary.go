package constinfer

// Per-function constraint-summary caching.
//
// Constraint generation for one function body is a pure function of (1)
// the shared pre-body state — declarations, globals, library signatures,
// struct types, the SCC partition of the FDG, and the variable numbering
// they induce — and (2) the function's own definition. The speculative
// worker machinery (parallel.go) already expresses a body's output as a
// relocatable fragment: constraints over worker-local variables plus
// stable references to pre-body variables, with scheme instantiations
// recorded symbolically for replay at merge time.
//
// A BodySummary is exactly that fragment in an Analysis-independent form,
// content-addressed by
//
//	key = H(prepare fingerprint ‖ function name ‖ function AST fingerprint)
//
// where the prepare fingerprint hashes everything a body analysis can
// observe of the shared state (declaration skeletons with bodies elided,
// enum constants, the SCC partition, and the numeric variable/constraint
// brackets of the signature sweep). Re-analyzing a program in which one
// function changed therefore re-derives only that function's fragment —
// every other body is replayed from cache, and the merged system is
// byte-identical to a cold run because the merge consumes fragments in
// the same deterministic SCC order either way.
//
// Summaries are sound across runs, not merely within one: a cached
// fragment is only stored when the speculative analysis completed without
// touching mutable shared state (no specMiss), and it is only replayed
// when the prepare fingerprint — which pins the meaning of every
// pre-body variable the fragment references — is unchanged.
//
// Scheme instantiations are recorded symbolically (callee by name, see
// SummaryInst), not as constraint copies, so a replayed fragment
// instantiates the callee's *current* scheme. Under -simplify that
// scheme's constraint fragment has already been condensed by the
// one-pass constraint.Restrict projection (cycles among internal
// variables collapsed, reachability composed per lattice component), so
// every replay instantiates the condensed form with no extra plumbing:
// fewer constraints enter the merged system per call site, and the
// merge is byte-identical to a cold run either way.

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/cfront"
	"repro/internal/constraint"
)

// SummaryKey is the content address of one function's constraint summary.
type SummaryKey [sha256.Size]byte

// BodySummary is one function body's constraint fragment in relocatable
// form: Cons and Pinned refer to worker-local variables (allocated from
// workerVarBase) and to stable pre-body variables; NVars counts the
// worker-local allocations; Insts records symbolic scheme instantiations
// to be replayed against the callee's current scheme at merge time.
// A stored summary is immutable and may be shared by concurrent readers.
type BodySummary struct {
	Cons   []constraint.Constraint
	NVars  int
	Pinned []constraint.Var
	Insts  []SummaryInst
}

// SummaryInst is one recorded scheme use: the callee by name, the
// fragment constraint index the instantiation happened at, and the
// renaming from the callee's signature variables (stable pre-body ids) to
// the worker-local variables of the instantiated copy.
type SummaryInst struct {
	Callee string
	At     int
	Ren    []RenPair
}

// RenPair maps one callee signature variable to its worker-local copy.
type RenPair struct {
	Sig, Worker constraint.Var
}

// ApproxBytes estimates the in-memory footprint of the summary, for
// byte-bounded caches.
func (s *BodySummary) ApproxBytes() int64 {
	n := int64(64)
	for _, c := range s.Cons {
		n += 48 + int64(len(c.Why.Pos)+len(c.Why.Msg))
	}
	n += int64(8 * len(s.Pinned))
	for _, in := range s.Insts {
		n += int64(32 + len(in.Callee) + 16*len(in.Ren))
	}
	return n
}

// SummaryCache memoizes per-function constraint summaries. Implementations
// must be safe for concurrent use; the cache is shared by every analysis a
// resident server runs. internal/cache provides a bounded LRU
// implementation with hit/miss/eviction counters.
type SummaryCache interface {
	GetSummary(SummaryKey) (*BodySummary, bool)
	PutSummary(SummaryKey, *BodySummary)
}

// SetSummaryCache installs a per-function summary cache consulted by
// Constrain. It must be set before Constrain runs. The cache accelerates
// the monomorphic and polymorphic modes; polymorphic recursion keeps its
// sequential iterate-to-fixpoint path and ignores the cache.
func (a *Analysis) SetSummaryCache(c SummaryCache) { a.summaries = c }

// prepareFingerprint hashes the shared pre-body state: options, the
// declaration skeleton of every file (function bodies and global
// initializer expressions elided — neither affects what a body analysis
// observes), enum constants, the SCC partition, and the numeric
// variable/constraint brackets after the signature sweep. Two runs with
// equal prepare fingerprints allocate identically-numbered pre-body
// variables with identical meanings.
func (a *Analysis) prepareFingerprint() []byte {
	h := sha256.New()
	fmt.Fprintf(h, "opts:%t,%t,%t,%d;", a.opts.Poly, a.opts.PolyRec, a.opts.Simplify, a.opts.MaxPolyRecIters)
	// The suite fingerprint pins the analysis set and every prelude's
	// content: cached fragments embed prelude-derived constraints, so a
	// summary must never be replayed under a different suite.
	fmt.Fprintf(h, "suite:%s;", a.suite.Fingerprint())
	for _, f := range a.files {
		if f == nil {
			fmt.Fprint(h, "file:nil;")
			continue
		}
		fmt.Fprintf(h, "file:%d:%s;", len(f.Name), f.Name)
		for _, d := range f.Decls {
			cfront.FingerprintDecl(h, d, false)
		}
		names := make([]string, 0, len(f.EnumConsts))
		for n := range f.EnumConsts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "enum:%s=%d;", n, f.EnumConsts[n])
		}
	}
	for _, scc := range a.sccs {
		fmt.Fprint(h, "scc:")
		for _, fi := range scc.funcs {
			fmt.Fprintf(h, "%d:%s,", len(fi.name), fi.name)
		}
		fmt.Fprintf(h, "@%d,%d,%d,%d;", scc.sigVars[0], scc.sigVars[1], scc.sigCons[0], scc.sigCons[1])
	}
	fmt.Fprintf(h, "pre:%d,%d;", a.sys.NumVars(), a.sys.NumConstraints())
	return h.Sum(nil)
}

// bodyKey is the content address of one function's fragment: the prepare
// fingerprint (pinning the shared state) plus the function's full AST
// fingerprint (structure, literals, and positions — a body whose line
// numbers shifted keys differently, because positions are embedded in
// constraint provenance).
func bodyKey(pre []byte, fi *funcInfo) SummaryKey {
	h := sha256.New()
	h.Write(pre)
	fmt.Fprintf(h, "func:%d:%s;", len(fi.name), fi.name)
	cfront.FingerprintFuncBody(h, fi.decl)
	var k SummaryKey
	h.Sum(k[:0])
	return k
}

// summaryFromResult converts a clean speculative fragment to its
// Analysis-independent cached form. The constraint and pin slices are
// aliased, not copied: the worker system they came from is discarded, and
// merge only reads them.
func summaryFromResult(r *bodyResult) *BodySummary {
	s := &BodySummary{Cons: r.cons, NVars: r.nvars, Pinned: r.pinned}
	for _, rec := range r.insts {
		pairs := make([]RenPair, 0, len(rec.ren))
		for sig, wv := range rec.ren {
			pairs = append(pairs, RenPair{Sig: sig, Worker: wv})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].Sig < pairs[j].Sig })
		s.Insts = append(s.Insts, SummaryInst{Callee: rec.callee.name, At: rec.at, Ren: pairs})
	}
	return s
}

// resultFromSummary rebinds a cached summary to this analysis, resolving
// callees by name. It fails (false) if a recorded callee does not resolve
// to a signatured function — impossible when the prepare fingerprint
// matched, but checked so a stale cache can only cause a recomputation,
// never a wrong merge.
func (a *Analysis) resultFromSummary(s *BodySummary) (bodyResult, bool) {
	insts := make([]instRecord, len(s.Insts))
	for i, si := range s.Insts {
		fi := a.funcs[si.Callee]
		if fi == nil || fi.sig == nil || !fi.defined {
			return bodyResult{}, false
		}
		ren := make(map[constraint.Var]constraint.Var, len(si.Ren))
		for _, p := range si.Ren {
			ren[p.Sig] = p.Worker
		}
		insts[i] = instRecord{callee: fi, at: si.At, ren: ren}
	}
	return bodyResult{cons: s.Cons, nvars: s.NVars, pinned: s.Pinned, insts: insts}, true
}

// cachedBodyResults produces the per-function fragments, replaying cached
// summaries for unchanged functions and running the worker pool only over
// the rest. Without a cache it is exactly constrainBodies. Fragments
// computed live and found clean (no specMiss) are stored for future runs.
func (a *Analysis) cachedBodyResults(jobs int) []bodyResult {
	if a.summaries == nil || a.opts.PolyRec || len(a.defined) == 0 {
		return a.constrainBodies(jobs, nil)
	}
	pre := a.prepareFingerprint()
	keys := make([]SummaryKey, len(a.defined))
	skip := make([]bool, len(a.defined))
	cached := make([]bodyResult, len(a.defined))
	for i, fi := range a.defined {
		keys[i] = bodyKey(pre, fi)
		if s, ok := a.summaries.GetSummary(keys[i]); ok {
			if r, ok := a.resultFromSummary(s); ok {
				r.cached = true
				cached[i] = r
				skip[i] = true
			}
		}
	}
	results := a.constrainBodies(jobs, skip)
	for i := range results {
		if skip[i] {
			results[i] = cached[i]
		} else if !results[i].miss {
			a.summaries.PutSummary(keys[i], summaryFromResult(&results[i]))
		}
	}
	return results
}
