package gofront

// The Go constraint engine behind driver.Engine: Prepare translates
// every defined function's signature and every package-level variable,
// ConstrainContext walks function bodies and global initializers in
// source order, and Classify reads the solved system back into the
// shared constinfer report shape.
//
// Constraint generation is strictly sequential and iterates only over
// slices built in source order (packages sorted by import path, files
// in load order, declarations in file order); the object-keyed maps are
// lookup-only. Output is therefore byte-identical from run to run by
// construction.

import (
	"context"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/driver"
	"repro/internal/qual"
)

// funcInfo is one defined function or method of the corpus.
type funcInfo struct {
	// name is the display and flow-trace name: pkgpath.Name for
	// functions, pkgpath.Recv.Name for methods (pointer stripped).
	name string
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *pkgInfo
	// sig is the rfunc translation; params[0] is the receiver for
	// methods.
	sig *rtype
}

// gpos is one interesting const position: a reference level of a
// defined function's parameter or result.
type gpos struct {
	fn    string
	param string
	index int
	depth int
	pos   token.Position
	ref   *rtype
}

type engine struct {
	prog  *Program
	cfg   driver.Config
	suite *analysis.Suite
	set   *qual.Set
	sys   *constraint.System
	tr    *translator

	// funcs lists defined functions in corpus order; funcByObj resolves
	// call targets (lookup only, never iterated).
	funcs     []*funcInfo
	funcByObj map[*types.Func]*funcInfo

	// env maps every bound object (params, locals, globals) to its cell
	// (an rref); keyed by go/types object identity, lookup only.
	env map[types.Object]*rtype

	// globalVars lists package-level var specs in corpus order, for the
	// global initializers.
	globalVars []globalVar

	positions []*gpos

	// constActive notes whether the "const" analysis is in the suite
	// (positions and verdicts only exist for it).
	constActive bool

	prepared    bool
	constrained bool
}

func newEngine(p *Program, cfg driver.Config, suite *analysis.Suite) *engine {
	set := suite.Set()
	e := &engine{
		prog:      p,
		cfg:       cfg,
		suite:     suite,
		set:       set,
		sys:       constraint.NewSystem(set),
		funcByObj: map[*types.Func]*funcInfo{},
		env:       map[types.Object]*rtype{},
	}
	e.tr = newGoTranslator(e.sys, suite)
	e.constActive = suite.Binding("const") != nil
	return e
}

type globalVar struct {
	pkg  *pkgInfo
	spec *ast.ValueSpec
}

// Prepare is the Build stage: collect defined functions and
// package-level variables in corpus order, translate signatures and
// global cells, and register const positions. No bodies are walked.
func (e *engine) Prepare() {
	if e.prepared {
		return
	}
	e.prepared = true
	for _, pkg := range e.prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					e.prepareFunc(pkg, d)
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						e.prepareGlobal(pkg, vs)
					}
				}
			}
		}
	}
}

func (e *engine) prepareFunc(pkg *pkgInfo, d *ast.FuncDecl) {
	if d.Body == nil {
		return // assembly or linkname stub: analyzed as a library function
	}
	obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		return // type checking failed badly enough to lose the object
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	fi := &funcInfo{
		name: definedFuncName(pkg, obj),
		obj:  obj,
		decl: d,
		pkg:  pkg,
		sig:  e.tr.signature(sig),
	}
	e.funcs = append(e.funcs, fi)
	e.funcByObj[obj] = fi
	e.registerPositions(fi, sig)
}

func (e *engine) prepareGlobal(pkg *pkgInfo, vs *ast.ValueSpec) {
	for _, name := range vs.Names {
		obj := pkg.Info.Defs[name]
		if obj == nil || name.Name == "_" {
			continue
		}
		e.env[obj] = e.tr.lvalue(obj.Type())
	}
	if len(vs.Values) > 0 {
		e.globalVars = append(e.globalVars, globalVar{pkg: pkg, spec: vs})
	}
}

// registerPositions records every reference level of the function's
// parameters and results as an interesting const position — the Go
// reading of the paper's "consts can only be placed on pointers":
// pointer, slice, map, and channel parameters are the positions.
func (e *engine) registerPositions(fi *funcInfo, sig *types.Signature) {
	if !e.constActive {
		return
	}
	var vars []*types.Var
	if recv := sig.Recv(); recv != nil {
		vars = append(vars, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		vars = append(vars, sig.Params().At(i))
	}
	for i, v := range vars {
		pos := e.prog.fset.Position(fi.decl.Pos())
		if v.Pos().IsValid() {
			pos = e.prog.fset.Position(v.Pos())
		}
		for _, pr := range refPositions(fi.sig.params[i], 0, nil) {
			e.positions = append(e.positions, &gpos{
				fn: fi.name, param: v.Name(), index: i, depth: pr.depth,
				pos: pos, ref: pr.ref,
			})
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		for _, pr := range refPositions(fi.sig.rets[i], 0, nil) {
			e.positions = append(e.positions, &gpos{
				fn: fi.name, param: r.Name(), index: -1, depth: pr.depth,
				pos: e.prog.fset.Position(fi.decl.Pos()), ref: pr.ref,
			})
		}
	}
}

// definedFuncName renders the display name of a defined function:
// "pkgpath.Name", or "pkgpath.Recv.Name" for methods with any pointer
// receiver stripped.
func definedFuncName(pkg *pkgInfo, obj *types.Func) string {
	prefix := pkg.Path
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return prefix + "." + name + "." + obj.Name()
		}
	}
	return prefix + "." + obj.Name()
}

// recvTypeName names a receiver (or method-owner) type, pointer
// stripped: *sql.DB → "DB".
func recvTypeName(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n := canonicalNamed(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// preludeName renders the prelude-lookup key of an imported function:
// "os.Getenv" (package short name) for package functions,
// "sql.DB.Query" for methods (receiver type, pointer stripped).
func preludeName(obj *types.Func) string {
	short := ""
	if obj.Pkg() != nil {
		short = obj.Pkg().Name()
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			if short == "" {
				return name + "." + obj.Name()
			}
			return short + "." + name + "." + obj.Name()
		}
	}
	if short == "" {
		return obj.Name()
	}
	return short + "." + obj.Name()
}

// ConstrainContext is the Constrain stage: every defined function's
// body, then the global initializers. The int argument (driver.Engine's
// jobs) has no effect. Cancellation is the driver's to report.
func (e *engine) ConstrainContext(ctx context.Context, _ int) {
	if e.constrained {
		return
	}
	e.constrained = true
	for _, fi := range e.funcs {
		if ctx.Err() != nil {
			return
		}
		e.analyzeBody(fi)
	}
	if ctx.Err() != nil {
		return
	}
	for _, gv := range e.globalVars {
		e.constrainGlobal(gv)
	}
}

// SolveSystemContext is the cold Solve stage.
func (e *engine) SolveSystemContext(context.Context) []*constraint.Unsat {
	return e.sys.Solve()
}

// SolveSession is SolveSystemContext; the session argument has no
// effect. Kept for bench/replay.go, removed with the next benchmark
// change.
func (e *engine) SolveSession(context.Context, *constraint.Session) []*constraint.Unsat {
	return e.sys.Solve()
}

func (e *engine) SolveStats() constraint.SolveStats { return e.sys.Stats() }

func (e *engine) Set() *qual.Set { return e.set }

// Classify reads the solved system back as the shared report shape:
// every position classified must-const / not-const / either, with the
// paper's counters. Go declares no consts, so Declared is always zero —
// every must-const and either position is an inference.
func (e *engine) Classify(conflicts []*constraint.Unsat) *constinfer.Report {
	rep := &constinfer.Report{
		Conflicts:   conflicts,
		Functions:   len(e.funcs),
		Constraints: e.sys.NumConstraints(),
		Vars:        e.sys.NumVars(),
		Positions:   make([]constinfer.PositionResult, 0, len(e.positions)),
	}
	for _, p := range e.positions {
		v := constinfer.Either
		if p.ref.q.IsVar() {
			switch {
			case e.sys.Forced(p.ref.q.Var(), "const"):
				v = constinfer.MustConst
			case e.sys.Forbidden(p.ref.q.Var(), "const"):
				v = constinfer.MustNotConst
			}
		}
		rep.Total++
		if v == constinfer.MustConst || v == constinfer.Either {
			rep.Inferred++
		}
		rep.Positions = append(rep.Positions, constinfer.PositionResult{
			Position: constinfer.Position{
				Func:  p.fn,
				Param: p.param,
				Index: p.index,
				Depth: p.depth,
				Pos:   constraint.Pos{File: p.pos.Filename, Line: int32(p.pos.Line), Col: int32(p.pos.Column)},
			},
			Verdict: v,
		})
	}
	return rep
}

// pos renders a node position for constraint provenance.
func (e *engine) pos(n ast.Node) token.Position {
	if n == nil {
		return token.Position{}
	}
	return e.prog.fset.Position(n.Pos())
}

func (e *engine) why(n ast.Node, msg string) constraint.Reason {
	return constraint.Reason{Pos: constraint.TokenPos(e.pos(n)), Msg: msg}
}
