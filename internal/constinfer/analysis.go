package constinfer

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constraint"
	"repro/internal/obs"
	"repro/internal/qual"
)

// Options selects the inference mode.
type Options struct {
	// Poly enables qualifier polymorphism over the function dependence
	// graph (Section 4.3); off reproduces the monomorphic C type system.
	Poly bool
	// Simplify is ignored: polymorphic schemes are always projected
	// onto their interface variables (Section 6's simplification). Kept
	// for bench/, removed with the next benchmark change.
	Simplify bool
	// PolyRec is rejected: polymorphic recursion inferred exactly what
	// Poly infers on every corpus and was deleted, and the driver fails
	// a run that sets it. Kept for bench/replay.go, removed with the
	// next benchmark change.
	PolyRec bool
	// Suite selects the qualifier analyses to run together in one
	// constraint pass over the shared product lattice (see
	// internal/analysis). Nil selects the classic const-only suite.
	Suite *analysis.Suite
}

// Verdict classifies one const position (the paper's three outcomes).
type Verdict int

// Position verdicts.
const (
	// MustConst: every solution carries const here.
	MustConst Verdict = iota
	// MustNotConst: the position is written through; const is impossible.
	MustNotConst
	// Either: unconstrained — the position can be made const (or left
	// non-const), the paper's additional-const count.
	Either
)

func (v Verdict) String() string {
	switch v {
	case MustConst:
		return "must-const"
	case MustNotConst:
		return "not-const"
	case Either:
		return "either"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Position is one interesting const position: a reference level in a
// parameter or result of a defined function. Both engines record them
// and Classify gives each its verdict.
type Position struct {
	// Func is the defined function owning the position.
	Func string
	// Param is the parameter name; empty for the function result.
	Param string
	// Index is the parameter index, or -1 for the result.
	Index int
	// Depth is the pointer level (0 = contents of the pointer itself).
	Depth int
	// Declared reports whether the source already spelled const here.
	Declared bool
	// Q is the qualifier variable of the reference level, the one the
	// verdict reads.
	Q constraint.Var
	// Pos locates the parameter or result in the source.
	Pos constraint.Pos
}

// PositionResult is a classified position.
type PositionResult struct {
	Position
	Verdict Verdict
}

// Report is the outcome of one analysis run, with the counters of the
// paper's Table 2.
type Report struct {
	// Positions lists every interesting position with its verdict.
	Positions []PositionResult
	// Declared counts positions already const in the source.
	Declared int
	// Inferred counts positions that may be const: must-const plus
	// either (the Mono/Poly columns of Table 2).
	Inferred int
	// Total counts all interesting positions (Table 2's "Total possible").
	Total int
	// Conflicts are unsatisfiable qualifier constraints; correct C
	// programs produce none.
	Conflicts []*constraint.Unsat
	// Suggested lists, per function, the declaration rewritten with every
	// addable const inserted (the paper's re-annotated program text).
	Suggested []Suggestion
	// Functions counts defined functions; SCCs counts the components of
	// the FDG; Constraints and Vars report solver load.
	Functions   int
	SCCs        int
	Constraints int
	Vars        int
}

type funcInfo struct {
	name   string
	decl   *cfront.FuncDecl // the defining decl, or a prototype
	file   string           // the name of decl's translation unit
	sig    *RType           // RFunc; created when the function's SCC is processed
	scheme *scheme
	// index is the function's position in Analysis.defined, -1 when it
	// has no definition.
	index   int32
	defined bool
}

// sccInfo is one strongly-connected component of the function dependence
// graph with the variable/constraint brackets the staged pipeline needs
// for generalization: every signature is created in a first sweep and
// the component's bodies are walked later, so its fragment is the union
// of two contiguous ranges rather than one. It holds no pointer, so the
// collector never scans Analysis.sccs.
type sccInfo struct {
	// lo and hi bracket the member functions in Analysis.members.
	lo, hi int32
	// sigVars/sigCons bracket the signature-creation fragment.
	sigVars, sigCons [2]int32
	// bodyVars/bodyCons bracket the body fragment.
	bodyVars, bodyCons [2]int32
}

// wide returns the half-open range r as the System's ints.
func wide(r [2]int32) [2]int { return [2]int{int(r[0]), int(r[1])} }

// globalDecl is a global variable declaration and the name of its
// translation unit.
type globalDecl struct {
	decl *cfront.VarDecl
	file string
}

type scheme struct {
	sig   *RType
	qvars []constraint.Var // quantified, in increasing order
	proj  *constraint.Projection
}

// Analysis is the const-inference engine over one whole program (a set of
// translation units analyzed together, as the paper analyzes program
// collections). It runs as a staged pipeline — Prepare, Constrain, Solve,
// Classify — that Run composes; internal/driver exposes the stages with
// timing hooks.
type Analysis struct {
	opts Options
	set  *qual.Set
	sys  *constraint.System
	tr   *translator

	files     []*cfront.File
	globals   map[string]*RType // l-value refs
	funcs     map[string]*funcInfo
	enums     map[string]bool
	positions []Position

	// suite holds the bound analyses; constActive caches whether the
	// const analysis is among them (position classification is
	// const-specific and skipped otherwise).
	suite       *analysis.Suite
	constActive bool

	// Staged-pipeline state, filled by Prepare. defined lists the
	// defined functions by name; members lists them again component by
	// component, in the order the components come out of Tarjan's
	// algorithm, and sccs brackets each component there.
	globalDecls []globalDecl
	defined     []*funcInfo
	members     []*funcInfo
	sccs        []sccInfo
	prepared    bool

	// env is the lexical environment of the body or global initializer
	// being walked.
	env env

	// walking names the function whose body analyzeBody is walking. It
	// is cleared when the walk returns, so after a panic it names the
	// body the panic escaped from.
	walking string

	// sigVars is generalizeSCC's buffer for a component's signature
	// variables, reused from component to component.
	sigVars []constraint.Var

	// generalize, when set, replaces generalizeSCC; tests set it to the
	// full-fragment reference generalization.
	generalize func(*sccInfo)
}

// NewAnalysis prepares an analysis over the parsed files.
func NewAnalysis(files []*cfront.File, opts Options) *Analysis {
	suite := opts.Suite
	if suite == nil {
		suite = analysis.Default()
	}
	set := suite.Set()
	sys := constraint.NewSystem(set)
	return &Analysis{
		opts:        opts,
		set:         set,
		sys:         sys,
		tr:          newTranslator(sys, suite),
		files:       files,
		globals:     make(map[string]*RType),
		enums:       make(map[string]bool),
		suite:       suite,
		constActive: suite.Binding("const") != nil,
	}
}

// Set returns the qualifier set the analysis runs over.
func (a *Analysis) Set() *qual.Set { return a.set }

// Suite returns the bound analysis suite.
func (a *Analysis) Suite() *analysis.Suite { return a.suite }

// Analyze parses nothing itself: it consumes parsed files, generates
// constraints, solves, and classifies.
func Analyze(files []*cfront.File, opts Options) (*Report, error) {
	a := NewAnalysis(files, opts)
	return a.Run()
}

// AnalyzeSource parses a single source text and analyzes it.
func AnalyzeSource(file, src string, opts Options) (*Report, error) {
	f, err := cfront.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return Analyze([]*cfront.File{f}, opts)
}

// Run executes the full pipeline: Prepare, Constrain, Solve and
// Classify. The error is always nil.
func (a *Analysis) Run() (*Report, error) {
	a.Prepare()
	a.Constrain()
	return a.Classify(a.SolveSystem()), nil
}

// Prepare is the Build stage: it collects functions (definitions win over
// prototypes), globals and enum constants, translates global and library
// signatures, and computes the strongly-connected components of the
// function dependence graph. It allocates qualifier variables but walks
// no function bodies.
//
// The function records live until the report is written, so they are
// allocated as arrays: one funcInfo per declared name in one slice, the
// components' members in one slice and the components themselves as
// values.
func (a *Analysis) Prepare() {
	if a.prepared {
		return
	}
	a.prepared = true
	n := 0
	for _, f := range a.files {
		for _, d := range f.Decls {
			if _, ok := d.(*cfront.FuncDecl); ok {
				n++
			}
		}
	}
	infos := make([]funcInfo, 0, n)
	for _, f := range a.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *cfront.FuncDecl:
				infos = append(infos, funcInfo{name: d.Name, decl: d, file: f.Name, defined: d.Body != nil})
			case *cfront.VarDecl:
				a.globalDecls = append(a.globalDecls, globalDecl{d, f.Name})
			}
		}
		for name := range f.EnumConsts {
			a.enums[name] = true
		}
	}
	funcs := sortedFuncs(infos)
	a.funcs = make(map[string]*funcInfo, len(funcs))
	ndefined := 0
	for i := range funcs {
		a.funcs[funcs[i].name] = &funcs[i]
		if funcs[i].defined {
			ndefined++
		}
	}

	// Globals are monomorphic and pinned.
	for _, g := range a.globalDecls {
		if _, dup := a.globals[g.decl.Name]; dup {
			continue // tentative definitions / extern redeclarations
		}
		a.tr.pinning, a.tr.file = true, g.file
		a.globals[g.decl.Name] = a.tr.LValue(g.decl.Type)
		a.tr.pinning = false
	}

	// Undefined (library) functions get monomorphic signatures with the
	// paper's conservative rule: parameters not declared const are
	// treated as written through. Library signatures add no function,
	// so the one sorted list also yields the defined functions.
	a.defined = make([]*funcInfo, 0, ndefined)
	for i := range funcs {
		fi := &funcs[i]
		fi.index = -1
		if !fi.defined {
			a.makeLibSignature(fi)
			continue
		}
		fi.index = int32(len(a.defined))
		a.defined = append(a.defined, fi)
	}

	// FDG over defined functions; SCCs come out callees-first (Tarjan
	// emits components in reverse topological order).
	a.buildSCCs()
}

// sccFuncs returns the member functions of a component.
func (a *Analysis) sccFuncs(scc *sccInfo) []*funcInfo { return a.members[scc.lo:scc.hi] }

// mark returns the System's current variable and constraint counts, the
// ends of a component's fragment ranges.
func (a *Analysis) mark() (vars, cons int32) {
	return int32(a.sys.NumVars()), int32(a.sys.NumConstraints())
}

// Constrain is the constraint-generation stage, the bottom-up pass over
// the function dependence graph of Section 4.3. Every signature is
// created first, in SCC order; then each SCC's bodies are walked in
// order and, in polymorphic mode, the component is generalized into
// schemes before the next one is walked, so later components instantiate
// them. Calls within a component use the shared monomorphic signatures.
// A panic escapes to the caller; Walking then names the function whose
// body it came from.
func (a *Analysis) Constrain() {
	a.ConstrainContext(context.Background(), 0)
}

// ConstrainContext is Constrain with tracing and cancellation. When the
// context carries an obs.Tracer, the stage emits "constrain.signatures"
// and "constrain.globals" spans plus one "constrain.func" span per
// function body, with the function name. The context is checked after
// each component (after its generalization in polymorphic mode); once it
// is done, the remaining bodies and the global initializers are skipped
// and the system is left partial, for the driver to report ctx.Err().
// The int argument has no effect; it is the jobs parameter of
// driver.Engine, kept for bench/replay.go.
func (a *Analysis) ConstrainContext(ctx context.Context, _ int) {
	tr := obs.FromContext(ctx)
	a.Prepare()
	// Signatures and positions, SCC order. All exist before any body is
	// walked, so a body sees the signature of every function it names.
	sp := tr.Start("constinfer", "constrain.signatures",
		obs.Int("sccs", len(a.sccs)), obs.Int("functions", len(a.defined)))
	for i := range a.sccs {
		scc := &a.sccs[i]
		scc.sigVars[0], scc.sigCons[0] = a.mark()
		for _, fi := range a.sccFuncs(scc) {
			a.tr.file = fi.file
			fi.sig = a.tr.RValue(fi.decl.Type)
		}
		scc.sigVars[1], scc.sigCons[1] = a.mark()
	}
	a.positions = a.collectPositions()
	sp.End()

	for i := range a.sccs {
		scc := &a.sccs[i]
		scc.bodyVars[0], scc.bodyCons[0] = a.mark()
		for _, fi := range a.sccFuncs(scc) {
			var sp *obs.Span
			if tr != nil { // the attributes would escape even for a nil tracer
				sp = tr.Start("constinfer", "constrain.func", obs.String("func", fi.name))
			}
			a.analyzeBody(fi)
			sp.End()
		}
		scc.bodyVars[1], scc.bodyCons[1] = a.mark()
		if a.opts.Poly {
			a.generalizeSCC(scc)
		}
		if ctx.Err() != nil {
			return
		}
	}
	sp = tr.Start("constinfer", "constrain.globals")
	a.analyzeGlobalInits()
	sp.End()
}

// Walking names the function whose body the Constrain stage was walking
// when a panic escaped it; it is empty when the stage returned normally
// or the panic came from outside a body.
func (a *Analysis) Walking() string { return a.walking }

// analyzeGlobalInits relates global initializers after the FDG traversal
// (Section 4.3: "After we reach the root node of the FDG, we analyze any
// global variable definitions").
func (a *Analysis) analyzeGlobalInits() {
	for _, g := range a.globalDecls {
		if g.decl.Init != nil {
			a.tr.file = g.file
			a.env.reset(nil)
			a.initialize(&a.env, a.globals[g.decl.Name], g.decl.Init)
		}
	}
}

// SolveSystem is the Solve stage: it runs the atomic-subtyping solver and
// returns the unsatisfiable constraints.
func (a *Analysis) SolveSystem() []*constraint.Unsat {
	return a.sys.Solve()
}

// SolveSystemContext is SolveSystem; the solver emits no spans of its
// own (the driver's "driver.solve" span covers it).
func (a *Analysis) SolveSystemContext(context.Context) []*constraint.Unsat {
	return a.sys.Solve()
}

// SolveSession is SolveSystemContext; the session argument has no
// effect. Kept for bench/replay.go, removed with the next benchmark
// change.
func (a *Analysis) SolveSession(context.Context, *constraint.Session) []*constraint.Unsat {
	return a.sys.Solve()
}

// generalizeSCC turns the component's constraint fragment, its signature
// and body ranges, into a type scheme for each member function (Section
// 4.3) through System.Generalize. The body is the component's
// signatures; a variable is local when it is unpinned and lies in the
// component's ranges.
func (a *Analysis) generalizeSCC(scc *sccInfo) {
	if a.generalize != nil {
		a.generalize(scc)
		return
	}
	local := func(v constraint.Var) bool {
		return (inRange(v, scc.sigVars) || inRange(v, scc.bodyVars)) && !a.tr.pinned(v)
	}
	body := a.sigVars[:0]
	members := a.sccFuncs(scc)
	for _, fi := range members {
		body = collectVars(fi.sig, body)
	}
	a.sigVars = body
	qvars, proj := a.sys.Generalize(body, local, wide(scc.sigCons), wide(scc.bodyCons))
	for _, fi := range members {
		fi.scheme = &scheme{sig: fi.sig, qvars: qvars, proj: proj}
	}
}

// inRange reports whether v lies in the half-open variable range rg.
func inRange(v constraint.Var, rg [2]int32) bool {
	return int32(v) >= rg[0] && int32(v) < rg[1]
}

// sortedFuncs sorts the records of infos, one per function declaration
// in declaration order, by name and keeps one record per name in place:
// the first definition, else the first declaration. It returns the kept
// prefix of infos.
func sortedFuncs(infos []funcInfo) []funcInfo {
	for i := range infos {
		infos[i].index = int32(i) // the declaration order, which ties break by
	}
	slices.SortFunc(infos, func(x, y funcInfo) int {
		if c := strings.Compare(x.name, y.name); c != 0 {
			return c
		}
		return cmp.Compare(x.index, y.index)
	})
	out := infos[:0]
	for lo, hi := 0, 0; lo < len(infos); lo = hi {
		keep := lo
		for hi = lo + 1; hi < len(infos) && infos[hi].name == infos[lo].name; hi++ {
			if !infos[keep].defined && infos[hi].defined {
				keep = hi
			}
		}
		out = append(out, infos[keep])
	}
	return out
}

// makeLibSignature builds the signature of an undefined function. Per
// analysis, either a prelude entry speaks for the function — its result
// annotation attaches to the shared signature here, while parameter
// annotations apply per call site (preludeArg) — or the analysis's
// conservative LibRef rule runs over every reference level of every
// parameter (for const: parameters not declared const are treated as
// written through).
func (a *Analysis) makeLibSignature(fi *funcInfo) {
	fi.sig = a.monoSig(fi)
	for _, b := range a.suite.Bindings() {
		if ent, ok := b.Entry(fi.name); ok {
			if ret := fi.sig.Ret(); ret != nil {
				b.ApplyResult(a.sys, ent, ret.Q)
			}
			continue
		}
		if b.A.Hooks.LibRef == nil {
			continue
		}
		for _, p := range fi.sig.Params() {
			for r := p; isRef(r); r = r.Elem {
				b.A.Hooks.LibRef(a.sys, b, analysis.LibUse{
					Fn: fi.name, Pos: filePos(fi.file, fi.decl.Pos),
					DeclaredConst: r.DeclaredConst,
				}, r.Q)
			}
		}
	}
}

// monoSig translates fi's declared type into a pinned, monomorphic
// signature whose positions lie in fi's translation unit.
func (a *Analysis) monoSig(fi *funcInfo) *RType {
	file := a.tr.file
	a.tr.pinning, a.tr.file = true, fi.file
	sig := a.tr.RValue(fi.decl.Type)
	a.tr.pinning, a.tr.file = false, file
	return sig
}

// preludeArg applies per-argument prelude annotations for a direct call
// to a library function: the seeds and sinks of -prelude, positioned at
// the offending argument rather than at the shared prototype.
func (a *Analysis) preludeArg(fn string, i int, rv *RType, pos cfront.Pos) {
	if rv == nil {
		return
	}
	for _, b := range a.suite.Bindings() {
		if ent, ok := b.Entry(fn); ok {
			b.ApplyParam(a.sys, ent, i, rv.Q, a.tr.pos(pos))
		}
	}
}

// buildSCCs computes the strongly-connected components of the function
// dependence graph over a.defined (Definition 4: an edge from f to g iff
// f's body contains an occurrence of the name g) into a.members and
// a.sccs, callees-first.
func (a *Analysis) buildSCCs() {
	defined := a.defined
	n := len(defined)
	// The edges of function i are dst[off[i]:off[i+1]], in the order of
	// each callee's first occurrence, which fixes the SCC order.
	// stamp[j] == i+1 marks j as already an edge of i, so one slice
	// dedupes callees for every function.
	off := make([]int32, n+1)
	var dst []int32
	stamp := make([]int32, n)
	var cur int32
	edge := func(e cfront.Expr) bool {
		if id, ok := e.(*cfront.Ident); ok {
			if fi := a.funcs[id.Name]; fi != nil && fi.index >= 0 && fi.index != cur && stamp[fi.index] != cur+1 {
				stamp[fi.index] = cur + 1
				dst = append(dst, fi.index)
			}
		}
		return true
	}
	for i, fi := range defined {
		cur = int32(i)
		cfront.WalkExprs(fi.decl.Body, edge)
		off[i+1] = int32(len(dst))
	}

	// Tarjan's algorithm, iterative to survive deep call chains. Each
	// component's members go to the end of a.members as it is found.
	idx := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	stack := make([]int32, 0, n)
	a.members = make([]*funcInfo, 0, n)
	a.sccs = make([]sccInfo, 0, n)
	var counter int32

	type frame struct {
		v, child int32 // child indexes dst from off[v]
	}
	var frames []frame
	for start := int32(0); start < int32(n); start++ {
		if idx[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{start, off[start]})
		idx[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < off[f.v+1] {
				w := dst[f.child]
				f.child++
				if idx[w] == -1 {
					idx[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, off[w]})
				} else if onStack[w] && idx[w] < low[f.v] {
					low[f.v] = idx[w]
				}
				continue
			}
			// Post-visit.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				lo := int32(len(a.members))
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					a.members = append(a.members, defined[w])
					if w == v {
						break
					}
				}
				a.sccs = append(a.sccs, sccInfo{lo: lo, hi: int32(len(a.members))})
			}
		}
	}
}

// collectVars appends the qualifier variables of t to out, in preorder.
// A signature shares no RType but struct values, whose variables are
// pinned, so out repeats only variables that are never quantified;
// Generalize and Restrict deduplicate their interfaces anyway.
func collectVars(t *RType, out []constraint.Var) []constraint.Var {
	if t == nil {
		return out
	}
	if t.Q.IsVar() {
		out = append(out, t.Q.Var())
	}
	out = collectVars(t.Elem, out)
	out = collectVars(t.Ret(), out)
	for _, p := range t.Params() {
		out = collectVars(p, out)
	}
	// Struct fields are pinned/shared and excluded from interfaces by
	// construction; no need to walk them.
	return out
}

// collectPositions returns the interesting const positions of the
// defined functions, component by component: every pointer level of
// every parameter and of the result. Positions are a const-analysis
// concept; suites without const track none. A large program has one
// per pointer level of every signature, so the slice is sized first.
func (a *Analysis) collectPositions() []Position {
	if !a.constActive {
		return nil
	}
	n := 0
	for _, fi := range a.members {
		for _, p := range fi.sig.Params() {
			n += refLevels(p)
		}
		n += refLevels(fi.sig.Ret())
	}
	ps := make([]Position, 0, n)
	for _, fi := range a.members {
		ps = a.appendPositions(ps, fi)
	}
	return ps
}

// refLevels counts the reference levels along t's pointer spine.
func refLevels(t *RType) int {
	n := 0
	for ; isRef(t); t = t.Elem {
		n++
	}
	return n
}

// appendPositions appends the positions of a defined function to ps.
func (a *Analysis) appendPositions(ps []Position, fi *funcInfo) []Position {
	declPos := filePos(fi.file, fi.decl.Pos)
	declParams := fi.decl.Type.Params()
	for i, p := range fi.sig.Params() {
		name := ""
		pos := declPos
		if i < len(declParams) {
			name = declParams[i].Name
			if pp := declParams[i].Pos; pp.IsValid() {
				pos = filePos(fi.file, pp)
			}
		}
		for depth, r := 0, p; isRef(r); depth, r = depth+1, r.Elem {
			ps = append(ps, Position{
				Func: fi.name, Param: name, Index: i, Depth: depth,
				Declared: r.DeclaredConst, Q: r.Q.Var(), Pos: pos,
			})
		}
	}
	for depth, r := 0, fi.sig.Ret(); isRef(r); depth, r = depth+1, r.Elem {
		ps = append(ps, Position{
			Func: fi.name, Index: -1, Depth: depth,
			Declared: r.DeclaredConst, Q: r.Q.Var(), Pos: declPos,
		})
	}
	return ps
}

// useFunc returns the r-value type for an occurrence of a function name:
// an instantiation of its scheme in polymorphic mode, its shared
// signature otherwise (including within its own SCC).
func (a *Analysis) useFunc(fi *funcInfo) *RType {
	if fi.sig == nil {
		// Referenced before its SCC is processed; only possible through
		// odd declaration orders — make a monomorphic signature now.
		fi.sig = a.monoSig(fi)
	}
	if fi.scheme == nil {
		return fi.sig
	}
	ren := make(map[constraint.Var]constraint.Var)
	for _, v := range fi.scheme.qvars {
		ren[v] = a.sys.Fresh()
	}
	a.sys.Instantiate(fi.scheme.proj, ren)
	return a.tr.instantiate(fi.scheme.sig, ren)
}

// Classify is the final stage: it interprets the solved system over the
// recorded positions and adds the C engine's counts and suggestions to
// the shared report.
func (a *Analysis) Classify(conflicts []*constraint.Unsat) *Report {
	rep := Classify(a.sys, conflicts, a.positions)
	rep.Functions = len(a.defined)
	rep.SCCs = len(a.sccs)
	rep.Suggested = a.buildSuggestions(rep)
	return rep
}

// Classify builds the report of a solved run, whatever front end
// produced its constraints (Section 4.2's three outcomes): every
// position's verdict, the Table 2 counters, the solver's size and the
// conflicts. The engine adds what only it knows.
func Classify(sys *constraint.System, conflicts []*constraint.Unsat, positions []Position) *Report {
	rep := &Report{
		Conflicts:   conflicts,
		Constraints: sys.NumConstraints(),
		Vars:        sys.NumVars(),
		Total:       len(positions),
		Positions:   make([]PositionResult, len(positions)),
	}
	for i, p := range positions {
		v := Either
		switch {
		case sys.Forced(p.Q, "const"):
			v = MustConst
		case sys.Forbidden(p.Q, "const"):
			v = MustNotConst
		}
		if p.Declared {
			rep.Declared++
		}
		if v != MustNotConst {
			rep.Inferred++
		}
		rep.Positions[i] = PositionResult{Position: p, Verdict: v}
	}
	return rep
}
