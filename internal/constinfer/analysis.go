package constinfer

import (
	"context"
	"fmt"
	"sort"

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

// Position is one interesting const position: a pointer level in a
// parameter or result of a defined function.
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
	// Pos locates the parameter or result in the source.
	Pos constraint.Pos

	ref *RType
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
	name    string
	decl    *cfront.FuncDecl // the defining decl, or a prototype
	file    string           // the name of decl's translation unit
	defined bool
	sig     *RType // RFunc; created when the function's SCC is processed
	scheme  *scheme
	scc     int // index into Analysis.sccs; -1 until Prepare assigns it
}

// sccInfo is one strongly-connected component of the function dependence
// graph with the variable/constraint brackets the staged pipeline needs
// for generalization: every signature is created in a first sweep and
// the component's bodies are walked later, so its fragment is the union
// of two contiguous ranges rather than one.
type sccInfo struct {
	funcs []*funcInfo
	// sigVars/sigCons bracket the signature-creation fragment.
	sigVars, sigCons [2]int
	// bodyVars/bodyCons bracket the body fragment.
	bodyVars, bodyCons [2]int
}

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
	positions []*Position

	// suite holds the bound analyses; constActive caches whether the
	// const analysis is among them (position classification is
	// const-specific and skipped otherwise).
	suite       *analysis.Suite
	constActive bool

	// Staged-pipeline state, filled by Prepare.
	globalDecls []globalDecl
	defined     []*funcInfo
	sccs        []*sccInfo
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
		funcs:       make(map[string]*funcInfo),
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
func (a *Analysis) Prepare() {
	if a.prepared {
		return
	}
	a.prepared = true
	for _, f := range a.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *cfront.FuncDecl:
				fi := a.funcs[d.Name]
				if fi == nil {
					fi = &funcInfo{name: d.Name, decl: d, file: f.Name, scc: -1}
					a.funcs[d.Name] = fi
				}
				if d.Body != nil && !fi.defined {
					fi.decl, fi.file = d, f.Name
					fi.defined = true
				}
			case *cfront.VarDecl:
				a.globalDecls = append(a.globalDecls, globalDecl{d, f.Name})
			}
		}
		for name := range f.EnumConsts {
			a.enums[name] = true
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
	funcs := sortedFuncs(a.funcs)
	for _, fi := range funcs {
		if !fi.defined {
			a.makeLibSignature(fi)
		}
	}

	// FDG over defined functions; SCCs come out callees-first (Tarjan
	// emits components in reverse topological order).
	for _, fi := range funcs {
		if fi.defined {
			a.defined = append(a.defined, fi)
		}
	}
	for i, comp := range a.buildSCCs(a.defined) {
		a.sccs = append(a.sccs, &sccInfo{funcs: comp})
		for _, fi := range comp {
			fi.scc = i
		}
	}
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

// ConstrainContext is Constrain with tracing. When the context carries
// an obs.Tracer, the stage emits "constrain.signatures" and
// "constrain.globals" spans plus one "constrain.func" span per function
// body, with the function name. The int argument has no effect; it is
// the jobs parameter of driver.Engine, kept for bench/replay.go.
func (a *Analysis) ConstrainContext(ctx context.Context, _ int) {
	tr := obs.FromContext(ctx)
	a.Prepare()
	// Signatures and positions, SCC order. All exist before any body is
	// walked, so a body sees the signature of every function it names.
	sp := tr.Start("constinfer", "constrain.signatures",
		obs.Int("sccs", len(a.sccs)), obs.Int("functions", len(a.defined)))
	for _, scc := range a.sccs {
		scc.sigVars[0], scc.sigCons[0] = a.sys.NumVars(), a.sys.NumConstraints()
		for _, fi := range scc.funcs {
			a.tr.file = fi.file
			fi.sig = a.tr.RValue(fi.decl.Type)
			a.positions = a.appendPositions(a.positions, fi)
		}
		scc.sigVars[1], scc.sigCons[1] = a.sys.NumVars(), a.sys.NumConstraints()
	}
	sp.End()

	for _, scc := range a.sccs {
		scc.bodyVars[0], scc.bodyCons[0] = a.sys.NumVars(), a.sys.NumConstraints()
		for _, fi := range scc.funcs {
			var sp *obs.Span
			if tr != nil { // the attributes would escape even for a nil tracer
				sp = tr.Start("constinfer", "constrain.func", obs.String("func", fi.name))
			}
			a.analyzeBody(fi)
			sp.End()
		}
		scc.bodyVars[1], scc.bodyCons[1] = a.sys.NumVars(), a.sys.NumConstraints()
		if a.opts.Poly {
			a.generalizeSCC(scc)
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

// SolveStats reports the size of the final system's last solve. Valid
// only after SolveSystem.
func (a *Analysis) SolveStats() constraint.SolveStats {
	return a.sys.Stats()
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
	for _, fi := range scc.funcs {
		body = collectVars(fi.sig, body)
	}
	a.sigVars = body
	qvars, proj := a.sys.Generalize(body, local, scc.sigCons, scc.bodyCons)
	for _, fi := range scc.funcs {
		fi.scheme = &scheme{sig: fi.sig, qvars: qvars, proj: proj}
	}
}

// inRange reports whether v lies in the half-open variable range rg.
func inRange(v constraint.Var, rg [2]int) bool {
	return int(v) >= rg[0] && int(v) < rg[1]
}

func sortedFuncs(m map[string]*funcInfo) []*funcInfo {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*funcInfo, len(names))
	for i, n := range names {
		out[i] = m[n]
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
// dependence graph (Definition 4: an edge from f to g iff f's body
// contains an occurrence of the name g), returned callees-first.
func (a *Analysis) buildSCCs(defined []*funcInfo) [][]*funcInfo {
	index := make(map[string]int, len(defined))
	for i, fi := range defined {
		index[fi.name] = i
	}
	// Edges keep the order of each callee's first occurrence, which
	// fixes the SCC order. stamp[j] == i+1 marks j as already an edge
	// of i, so one slice dedupes callees for every function.
	adj := make([][]int, len(defined))
	stamp := make([]int, len(defined))
	cur := 0
	edge := nameVisitor(func(name string) {
		if j, ok := index[name]; ok && j != cur && stamp[j] != cur+1 {
			stamp[j] = cur + 1
			adj[cur] = append(adj[cur], j)
		}
	})
	for i, fi := range defined {
		cur = i
		edge.stmt(fi.decl.Body)
	}

	// Tarjan's algorithm, iterative to survive deep call chains.
	n := len(defined)
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	var stack []int
	var sccs [][]*funcInfo
	counter := 0

	type frame struct {
		v, child int
	}
	for start := 0; start < n; start++ {
		if idx[start] != -1 {
			continue
		}
		frames := []frame{{start, 0}}
		idx[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < len(adj[f.v]) {
				w := adj[f.v][f.child]
				f.child++
				if idx[w] == -1 {
					idx[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
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
				var comp []*funcInfo
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, defined[w])
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}

// nameVisitor is called on every identifier occurring in a body, in
// source order; its methods walk statements and expressions.
type nameVisitor func(name string)

func (visit nameVisitor) expr(e cfront.Expr) {
	switch e := e.(type) {
	case nil:
	case *cfront.Ident:
		visit(e.Name)
	case *cfront.Unary:
		visit.expr(e.X)
	case *cfront.Postfix:
		visit.expr(e.X)
	case *cfront.Binary:
		visit.expr(e.L)
		visit.expr(e.R)
	case *cfront.AssignExpr:
		visit.expr(e.L)
		visit.expr(e.R)
	case *cfront.Cond:
		visit.expr(e.C)
		visit.expr(e.T)
		visit.expr(e.F)
	case *cfront.Call:
		visit.expr(e.Fn)
		for _, x := range e.Args {
			visit.expr(x)
		}
	case *cfront.Index:
		visit.expr(e.X)
		visit.expr(e.I)
	case *cfront.Member:
		visit.expr(e.X)
	case *cfront.Cast:
		visit.expr(e.X)
	case *cfront.SizeofExpr:
		visit.expr(e.X)
	case *cfront.Comma:
		visit.expr(e.L)
		visit.expr(e.R)
	case *cfront.InitList:
		for _, x := range e.Items {
			visit.expr(x)
		}
	}
}

func (visit nameVisitor) stmt(s cfront.Stmt) {
	switch s := s.(type) {
	case nil:
	case *cfront.Block:
		for _, it := range s.Items {
			visit.stmt(it)
		}
	case *cfront.DeclStmt:
		for _, d := range s.Decls {
			if v, ok := d.(*cfront.VarDecl); ok && v.Init != nil {
				visit.expr(v.Init)
			}
		}
	case *cfront.ExprStmt:
		visit.expr(s.X)
	case *cfront.IfStmt:
		visit.expr(s.Cond)
		visit.stmt(s.Then)
		visit.stmt(s.Else)
	case *cfront.WhileStmt:
		visit.expr(s.Cond)
		visit.stmt(s.Body)
	case *cfront.DoWhileStmt:
		visit.stmt(s.Body)
		visit.expr(s.Cond)
	case *cfront.ForStmt:
		visit.stmt(s.Init)
		visit.expr(s.Cond)
		visit.expr(s.Post)
		visit.stmt(s.Body)
	case *cfront.ReturnStmt:
		visit.expr(s.Value)
	case *cfront.LabelStmt:
		visit.stmt(s.Stmt)
	case *cfront.SwitchStmt:
		visit.expr(s.Tag)
		visit.stmt(s.Body)
	case *cfront.CaseStmt:
		visit.expr(s.Value)
		visit.stmt(s.Stmt)
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

// appendPositions appends the interesting const positions of a defined
// function to ps: every pointer level of every parameter and of the
// result. Positions are a const-analysis concept; suites without const
// track none.
func (a *Analysis) appendPositions(ps []*Position, fi *funcInfo) []*Position {
	if !a.constActive {
		return ps
	}
	declPos := filePos(fi.file, fi.decl.Pos)
	for i, p := range fi.sig.Params() {
		name := ""
		pos := declPos
		if i < len(fi.decl.Type.Params) {
			name = fi.decl.Type.Params[i].Name
			if pp := fi.decl.Type.Params[i].Pos; pp.IsValid() {
				pos = filePos(fi.file, pp)
			}
		}
		for depth, r := 0, p; isRef(r); depth, r = depth+1, r.Elem {
			ps = append(ps, &Position{
				Func: fi.name, Param: name, Index: i, Depth: depth,
				Declared: r.DeclaredConst, Pos: pos, ref: r,
			})
		}
	}
	for depth, r := 0, fi.sig.Ret(); isRef(r); depth, r = depth+1, r.Elem {
		ps = append(ps, &Position{
			Func: fi.name, Index: -1, Depth: depth,
			Declared: r.DeclaredConst, Pos: declPos, ref: r,
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
// recorded positions and assembles the report.
func (a *Analysis) Classify(conflicts []*constraint.Unsat) *Report {
	rep := &Report{
		Conflicts:   conflicts,
		Functions:   len(a.defined),
		SCCs:        len(a.sccs),
		Constraints: a.sys.NumConstraints(),
		Vars:        a.sys.NumVars(),
		Positions:   make([]PositionResult, 0, len(a.positions)),
	}
	for _, p := range a.positions {
		v := Either
		if p.ref.Q.IsVar() {
			switch {
			case a.sys.Forced(p.ref.Q.Var(), "const"):
				v = MustConst
			case a.sys.Forbidden(p.ref.Q.Var(), "const"):
				v = MustNotConst
			}
		} else if a.set.Has(p.ref.Q.Const(), "const") {
			v = MustConst
		}
		rep.Total++
		if p.Declared {
			rep.Declared++
		}
		if v == MustConst || v == Either {
			rep.Inferred++
		}
		rep.Positions = append(rep.Positions, PositionResult{Position: *p, Verdict: v})
	}
	rep.Suggested = a.buildSuggestions(rep)
	return rep
}
