package constinfer

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
)

// Parallel constraint generation.
//
// Constraint generation is independent per function body once every
// signature exists (Constrain's sequential first sweep), so bodies are
// analyzed concurrently: each pool goroutine clones the Analysis once,
// with its own constraint system allocating variables in a disjoint high
// range (workerVarBase), and walks its bodies one at a time, resetting
// the clone in between and returning each body's constraint fragment.
// The fragments are renumbered into the shared system sequentially in SCC
// order, so the merged system — variable numbering, constraint order,
// everything downstream — is identical for every pool size, including 1.
//
// Workers treat all shared state (globals, function infos, struct types)
// as frozen. The handful of constructs that would mutate it — an implicit
// global, an implicitly declared function, a struct type first reached
// inside a body, a late-completed struct field — panic with specMiss
// instead; the merge loop re-analyzes those bodies sequentially at their
// deterministic slot. Because workers observe only the frozen pre-body
// state, which bodies miss is itself deterministic. Any other panic is
// recovered on the worker and reported at the join as a stage error.

// workerVarBase is the first qualifier variable a speculative worker
// allocates. Real programs stay far below it, so worker-allocated
// variables are recognizable by v >= workerVarBase at merge time.
const workerVarBase = 1 << 30

// speculation is the per-worker record of scheme uses. Schemes do not
// exist while workers run (generalization happens at merge), so a call to
// a function in an earlier SCC is instantiated symbolically: the worker
// renames the callee's signature interface with fresh variables and
// records the use; the merge replays the constraint copy against the real
// scheme at the same position.
type speculation struct {
	// scc is the component of the function being analyzed; calls within
	// it use the shared signature, as the sequential path does.
	scc   int
	insts []instRecord
}

// instRecord is one symbolic scheme instantiation.
type instRecord struct {
	callee *funcInfo
	// at is the worker constraint index the instantiation happened at;
	// the replayed scheme constraints are inserted there.
	at int
	// ren maps the callee's non-pinned signature variables to the fresh
	// worker variables the instantiated signature uses.
	ren map[constraint.Var]constraint.Var
}

// specMiss aborts a speculative body analysis that needs to mutate shared
// state; the body is re-analyzed sequentially at merge time.
type specMiss struct{ what string }

// bodyResult is one body's speculative constraint fragment.
type bodyResult struct {
	cons   []constraint.Constraint
	nvars  int              // variables allocated at workerVarBase
	pinned []constraint.Var // worker-allocated pinned variables, sorted
	insts  []instRecord
	miss   bool
	// crash is the value of a panic other than specMiss, recovered on
	// the worker so the join can report it as a Constrain error.
	crash any
}

// instantiate symbolically instantiates a callee from an earlier SCC: the
// signature's interface variables are renamed to fresh worker variables
// and the use is recorded for replay against the callee's scheme.
func (s *speculation) instantiate(a *Analysis, callee *funcInfo) *RType {
	ren := make(map[constraint.Var]constraint.Var)
	for _, v := range collectVars(callee.sig, nil, map[*RType]bool{}) {
		if !a.tr.isPinned(v) {
			ren[v] = a.sys.Fresh()
		}
	}
	s.insts = append(s.insts, instRecord{
		callee: callee, at: a.sys.NumConstraints(), ren: ren,
	})
	return a.tr.instantiate(callee.sig, ren, map[*RType]*RType{})
}

// constrainBodies analyzes every defined function body on a worker pool
// of the given size (0 selects GOMAXPROCS) and returns the per-function
// fragments indexed by fi.ord. A panic in any body fails the stage with
// an error naming the first such function in fi.ord order.
func (a *Analysis) constrainBodies(jobs int) ([]bodyResult, error) {
	results := make([]bodyResult, len(a.defined))
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(a.defined) {
		jobs = len(a.defined)
	}
	if jobs <= 1 {
		w := a.newWorker()
		for i, fi := range a.defined {
			results[i] = w.constrainBody(fi)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := a.newWorker()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(a.defined) {
						return
					}
					results[i] = w.constrainBody(a.defined[i])
				}
			}()
		}
		wg.Wait()
	}
	for i := range results {
		if p := results[i].crash; p != nil {
			return nil, fmt.Errorf("constrain: internal error in function %s: %v", a.defined[i].name, p)
		}
	}
	return results, nil
}

// newWorker clones the analysis for speculative body walks, with a
// private constraint system allocating from workerVarBase and its own
// pins over the parent's. The clone shares the frozen maps (globals,
// funcs, enums, struct values) read-only. One worker serves every body
// a pool goroutine takes; constrainBody resets it per body.
func (a *Analysis) newWorker() *Analysis {
	wsys := constraint.NewSystemAt(a.set, workerVarBase)
	return &Analysis{
		opts: a.opts,
		set:  a.set,
		sys:  wsys,
		tr: &translator{
			sys:         wsys,
			set:         a.tr.set,
			suite:       a.tr.suite,
			structVals:  a.tr.structVals,
			pinned:      make(map[constraint.Var]bool),
			basePinned:  a.tr.pinned,
			speculative: true,
		},
		files:       a.files,
		globals:     a.globals,
		funcs:       a.funcs,
		enums:       a.enums,
		suite:       a.suite,
		constActive: a.constActive,
	}
}

// bodyHook, when set, runs on the worker before each body walk. Only
// tests set it, through SetBodyHookForTest.
var bodyHook func(name string)

// SetBodyHookForTest installs fn to run before the constrain pool walks
// each function body, named by its function, and returns a function that
// restores the previous hook. Tests use it to make a worker panic; it
// must not be called while an analysis runs.
func SetBodyHookForTest(fn func(name string)) (restore func()) {
	prev := bodyHook
	bodyHook = fn
	return func() { bodyHook = prev }
}

// constrainBody speculatively analyzes one body on a, a worker clone
// built by newWorker, after resetting the state a previous body left in
// it. The fragment's constraints are copied out of the reused system.
func (a *Analysis) constrainBody(fi *funcInfo) (res bodyResult) {
	a.sys.Reset(workerVarBase)
	clear(a.tr.pinned)
	a.tr.pinning = false
	a.spec = &speculation{scc: fi.scc}
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(specMiss); ok {
				res = bodyResult{miss: true}
				return
			}
			res = bodyResult{crash: p}
		}
	}()
	if bodyHook != nil {
		bodyHook(fi.name)
	}
	a.analyzeBody(fi)
	return bodyResult{
		cons:   slices.Clone(a.sys.Constraints()),
		nvars:  a.sys.NumVars() - workerVarBase,
		pinned: sortedVars(a.tr.pinned),
		insts:  a.spec.insts,
	}
}

// mergeBody renumbers one speculative fragment into the shared system:
// worker variables become fresh shared variables in allocation order,
// worker pins carry over, and each recorded scheme use is replayed at its
// original position exactly as the sequential instantiation would.
func (a *Analysis) mergeBody(r *bodyResult) {
	ren := make(map[constraint.Var]constraint.Var, r.nvars)
	for i := 0; i < r.nvars; i++ {
		ren[constraint.Var(workerVarBase+i)] = a.sys.Fresh()
	}
	for _, v := range r.pinned {
		a.tr.pinned[ren[v]] = true
	}
	prev := 0
	for i := range r.insts {
		rec := &r.insts[i]
		a.sys.AddConstraints(r.cons[prev:rec.at], ren)
		prev = rec.at
		a.replayInst(rec, ren)
	}
	a.sys.AddConstraints(r.cons[prev:], ren)
}

// replayInst copies the callee scheme's constraints for one recorded use.
// Quantified variables the worker pre-named (the signature interface) map
// to their merged counterparts; the remaining quantified variables (the
// scheme's internal ones) get fresh shared variables in sorted order,
// mirroring useFunc.
func (a *Analysis) replayInst(rec *instRecord, ren map[constraint.Var]constraint.Var) {
	sch := rec.callee.scheme
	if sch == nil {
		// Monomorphic callee after all (e.g. polymorphism disabled for
		// its component); the worker used renamed signature variables, so
		// equate them with the shared ones.
		why := constraint.Reason{Msg: "monomorphic use of " + rec.callee.name}
		sigVars := make([]constraint.Var, 0, len(rec.ren))
		for v := range rec.ren {
			sigVars = append(sigVars, v)
		}
		sort.Slice(sigVars, func(i, j int) bool { return sigVars[i] < sigVars[j] })
		for _, v := range sigVars {
			wv := rec.ren[v]
			a.sys.Add(constraint.V(ren[wv]), constraint.V(v), why)
			a.sys.Add(constraint.V(v), constraint.V(ren[wv]), why)
		}
		return
	}
	sren := make(map[constraint.Var]constraint.Var, len(sch.qvars))
	for _, v := range sortedVars(sch.qvars) {
		if wv, ok := rec.ren[v]; ok {
			sren[v] = ren[wv]
		} else {
			sren[v] = a.sys.Fresh()
		}
	}
	a.sys.AddConstraints(sch.cons, sren)
}
