package gofront

// Call-site constraint generation: conversions, builtins, calls to
// functions defined in the corpus (monomorphic flow into the shared
// signature), and calls to imported library functions (prelude entries
// when declared, the conservative library rule otherwise).

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// call generates constraints for one call expression and returns its
// result types, padded to want entries.
func (bc *bodyCtx) call(x *ast.CallExpr, want int) []*rtype {
	en := bc.e
	fun := ast.Unparen(x.Fun)

	// Conversion: T(v). Structure is severed (the paper's cast rule);
	// the top-level qualifier is kept, so string(taintedBytes) stays
	// tainted.
	if tv, ok := bc.pkg.Info.Types[x.Fun]; ok && tv.IsType() {
		res := en.tr.rvalue(typeOf(bc.pkg, x))
		for _, arg := range x.Args {
			if rv := bc.exprR(arg); rv != nil {
				en.sys.Add(rv.q, res.q, en.why(x, "converted"))
			}
		}
		return pad([]*rtype{res}, want, en)
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := usedObject(bc.pkg, id).(*types.Builtin); ok {
			return pad(bc.builtin(x, b.Name()), want, en)
		}
	}

	// Resolve a static callee: plain function, package-qualified
	// function, or method (the receiver then becomes argument 0).
	var callee *types.Func
	var recvRV *rtype
	switch f := fun.(type) {
	case *ast.Ident:
		callee, _ = usedObject(bc.pkg, f).(*types.Func)
	case *ast.SelectorExpr:
		if sel := bc.pkg.Info.Selections[f]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				callee = fn
				recvRV = bc.exprR(f.X)
			}
		} else {
			callee, _ = usedObject(bc.pkg, f.Sel).(*types.Func)
		}
	}

	if callee != nil {
		if fi, ok := en.funcByObj[callee]; ok {
			return pad(bc.definedCall(x, fi, recvRV), want, en)
		}
		return pad(bc.libraryCall(x, callee, recvRV), want, en)
	}

	// Dynamic call through a function value (or an untracked shape).
	frv := bc.exprR(fun)
	if frv != nil && frv.kind == rfunc {
		bc.flowArgs(x, frv, nil)
		return pad(append([]*rtype(nil), frv.rets...), want, en)
	}
	return pad(bc.unknownCall(x, "indirect call"), want, en)
}

// pad extends results to want entries with fresh leaves.
func pad(out []*rtype, want int, en *engine) []*rtype {
	for len(out) < want {
		out = append(out, en.tr.leaf("result"))
	}
	return out
}

// definedCall flows arguments into the callee's shared monomorphic
// signature and returns its shared result types.
func (bc *bodyCtx) definedCall(x *ast.CallExpr, fi *funcInfo, recvRV *rtype) []*rtype {
	en := bc.e
	if recvRV != nil && len(fi.sig.params) > 0 {
		en.tr.subtype(recvRV, fi.sig.params[0], en.why(x, "receiver of call to "+fi.name))
	}
	bc.flowArgs(x, fi.sig, recvRV)
	return append([]*rtype(nil), fi.sig.rets...)
}

// flowArgs flows call arguments into an rfunc's parameters, handling
// variadic tails and `f(xs...)` spreads. recvRV non-nil means params[0]
// is the (already-flowed) receiver.
func (bc *bodyCtx) flowArgs(x *ast.CallExpr, sig *rtype, recvRV *rtype) {
	en := bc.e
	base := 0
	if recvRV != nil {
		base = 1
	}
	last := len(sig.params) - 1
	for i, arg := range x.Args {
		rv := bc.exprR(arg)
		pi := base + i
		why := en.why(arg, "passed as argument")
		switch {
		case sig.variadic && x.Ellipsis.IsValid() && pi >= last:
			// f(xs...): the slice itself flows into the variadic slot.
			en.tr.subtype(rv, sig.params[last], why)
		case sig.variadic && pi >= last && last >= 0:
			// Extra variadic argument: it becomes an element of the
			// implicit slice.
			if p := sig.params[last]; p != nil && p.kind == rref {
				en.tr.subtype(rv, p.elem, why)
			} else if rv != nil && p != nil {
				en.sys.Add(rv.q, p.q, why)
			}
		case pi < len(sig.params):
			en.tr.subtype(rv, sig.params[pi], why)
		}
	}
}

// libraryCall handles a call to a function the corpus does not define.
// Per analysis: a prelude entry speaks for the function (result
// annotations seed the call's results, parameter annotations sink the
// arguments, both at this call site), or the conservative LibRef rule
// bounds every reference level of every argument. When no analysis has
// an entry, arguments may alias results (bytes.TrimSpace returns a view
// of its argument), so every argument's top-level qualifier flows into
// every result.
func (bc *bodyCtx) libraryCall(x *ast.CallExpr, obj *types.Func, recvRV *rtype) []*rtype {
	en := bc.e
	name := preludeName(obj)

	// Evaluate arguments once, in order.
	args := make([]*rtype, len(x.Args))
	for i, arg := range x.Args {
		args[i] = bc.exprR(arg)
	}

	// Result types from the callee's declared signature.
	var rets []*rtype
	if sig, ok := obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			rets = append(rets, en.tr.rvalue(sig.Results().At(i).Type()))
		}
	}

	covered := false
	for _, b := range en.suite.Bindings() {
		ent, ok := b.Entry(name)
		if ok {
			covered = true
			for _, r := range rets {
				b.ApplyResult(en.sys, ent, r.q)
			}
			// Prelude parameter positions count declared parameters;
			// the receiver is annotated separately via "recv:".
			if recvRV != nil {
				b.ApplyRecv(en.sys, ent, recvRV.q, analysis.TokenPos(en.pos(x)))
			}
			for i, rv := range args {
				if rv != nil {
					b.ApplyParam(en.sys, ent, i, rv.q, analysis.TokenPos(en.pos(x.Args[i])))
				}
			}
			continue
		}
		if b.A.Hooks.LibRef == nil {
			continue
		}
		libArgs := args
		if recvRV != nil {
			libArgs = append([]*rtype{recvRV}, args...)
		}
		for _, rv := range libArgs {
			for _, pr := range refPositions(rv, 0, nil) {
				b.A.Hooks.LibRef(en.sys, b, analysis.LibUse{
					Fn:  name,
					Pos: analysis.TokenPos(en.pos(x)),
				}, pr.ref.q)
			}
		}
	}
	if !covered {
		// No analysis speaks for the function: results may carry (or
		// alias) whatever flowed in.
		srcs := args
		if recvRV != nil {
			srcs = append([]*rtype{recvRV}, args...)
		}
		for _, rv := range srcs {
			if rv == nil {
				continue
			}
			for _, r := range rets {
				en.sys.Add(rv.q, r.q, en.why(x, "through library call to "+name))
			}
		}
	}
	return rets
}

// unknownCall is the fallback for calls with no tracked callee shape:
// evaluate arguments, apply the conservative library rule, return an
// opaque result.
func (bc *bodyCtx) unknownCall(x *ast.CallExpr, what string) []*rtype {
	en := bc.e
	res := en.tr.leaf("result")
	for _, arg := range x.Args {
		rv := bc.exprR(arg)
		if rv == nil {
			continue
		}
		en.sys.Add(rv.q, res.q, en.why(x, "through "+what))
		for _, b := range en.suite.Bindings() {
			if h := b.A.Hooks.LibRef; h != nil {
				for _, pr := range refPositions(rv, 0, nil) {
					h(en.sys, b, analysis.LibUse{Fn: what, Pos: analysis.TokenPos(en.pos(x))}, pr.ref.q)
				}
			}
		}
	}
	return []*rtype{res}
}

// builtin handles Go's predeclared functions; the mutating ones are
// write sites.
func (bc *bodyCtx) builtin(x *ast.CallExpr, name string) []*rtype {
	en := bc.e
	switch name {
	case "append":
		if len(x.Args) == 0 {
			return []*rtype{en.tr.leaf("append")}
		}
		s := bc.exprR(x.Args[0])
		if s != nil && s.kind == rref {
			bc.forbidWrite(&lval{ref: s}, en.why(x, "appended to"))
		}
		for i, arg := range x.Args[1:] {
			rv := bc.exprR(arg)
			if s == nil || s.kind != rref {
				continue
			}
			if x.Ellipsis.IsValid() && i == len(x.Args)-2 {
				en.tr.subtype(rv, s, en.why(arg, "appended (spread)"))
			} else {
				en.tr.subtype(rv, s.elem, en.why(arg, "appended"))
			}
		}
		// The result shares the argument's backing store (append may
		// or may not reallocate).
		if s != nil {
			return []*rtype{s}
		}
		return []*rtype{en.tr.leaf("append")}
	case "copy":
		if len(x.Args) == 2 {
			dst := bc.exprR(x.Args[0])
			src := bc.exprR(x.Args[1])
			if dst != nil && dst.kind == rref {
				bc.forbidWrite(&lval{ref: dst}, en.why(x, "copied into"))
				if src != nil && src.kind == rref {
					en.tr.subtype(src.elem, dst.elem, en.why(x, "copied"))
				} else if src != nil {
					en.sys.Add(src.q, dst.elem.q, en.why(x, "copied"))
				}
			}
		}
		return []*rtype{en.tr.leaf("int")}
	case "delete", "clear", "close":
		for _, arg := range x.Args {
			rv := bc.exprR(arg)
			if rv != nil && rv.kind == rref {
				bc.forbidWrite(&lval{ref: rv}, en.why(x, name+"d"))
			}
		}
		return []*rtype{en.tr.leaf(name)}
	case "new":
		return []*rtype{en.tr.rvalue(typeOf(bc.pkg, x))}
	case "make":
		for _, arg := range x.Args[1:] {
			bc.exprR(arg)
		}
		return []*rtype{en.tr.rvalue(typeOf(bc.pkg, x))}
	case "min", "max":
		res := en.tr.leaf(name)
		for _, arg := range x.Args {
			if rv := bc.exprR(arg); rv != nil {
				en.sys.Add(rv.q, res.q, en.why(arg, "operand of "+name))
			}
		}
		return []*rtype{res}
	default:
		// len, cap, panic, recover, print, println, complex, real,
		// imag, unsafe.*: evaluate arguments, opaque result.
		for _, arg := range x.Args {
			bc.exprR(arg)
		}
		return []*rtype{en.tr.leaf(name)}
	}
}

// constrainGlobal flows a package-level initializer into the already
// prepared global cells.
func (e *engine) constrainGlobal(gv globalVar) {
	bc := &bodyCtx{e: e, pkg: gv.pkg, fi: &funcInfo{name: gv.pkg.Path + ".init", pkg: gv.pkg, sig: &rtype{kind: rfunc, q: e.tr.freshQ()}}}
	vs := gv.spec
	var rvs []*rtype
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		rvs = bc.exprMulti(vs.Values[0], len(vs.Names))
	} else {
		for _, v := range vs.Values {
			rvs = append(rvs, bc.exprR(v))
		}
	}
	for i, name := range vs.Names {
		obj := gv.pkg.Info.Defs[name]
		if obj == nil || name.Name == "_" || i >= len(rvs) {
			continue
		}
		if cell, ok := e.env[obj]; ok {
			e.tr.subtype(rvs[i], cell.elem, e.why(name, "initialization of "+name.Name))
		}
	}
}
