package constinfer

import (
	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constraint"
)

// env is the lexical environment during body analysis: scoped l-value
// types for parameters and locals.
type env struct {
	a      *Analysis
	scopes []map[string]*RType
	fn     *funcInfo // for return statements
}

func newEnv(a *Analysis) *env {
	return &env{a: a, scopes: []map[string]*RType{{}}}
}

func (e *env) push() { e.scopes = append(e.scopes, map[string]*RType{}) }
func (e *env) pop()  { e.scopes = e.scopes[:len(e.scopes)-1] }

func (e *env) bind(name string, lv *RType) {
	e.scopes[len(e.scopes)-1][name] = lv
}

func (e *env) lookup(name string) (*RType, bool) {
	for i := len(e.scopes) - 1; i >= 0; i-- {
		if lv, ok := e.scopes[i][name]; ok {
			return lv, true
		}
	}
	return nil, false
}

func why(pos cfront.Pos, msg string) constraint.Reason {
	return constraint.Reason{Pos: pos.String(), Msg: msg}
}

// bodyHook, when set, runs before each body walk. Only tests set it,
// through SetBodyHookForTest.
var bodyHook func(name string)

// SetBodyHookForTest installs fn to run before the Constrain stage walks
// each function body, named by its function, and returns a function that
// restores the previous hook. Tests use it to make a body walk panic; it
// must not be called while an analysis runs.
func SetBodyHookForTest(fn func(name string)) (restore func()) {
	prev := bodyHook
	bodyHook = fn
	return func() { bodyHook = prev }
}

// analyzeBody generates constraints for one function definition.
func (a *Analysis) analyzeBody(fi *funcInfo) {
	a.walking = fi.name
	if bodyHook != nil {
		bodyHook(fi.name)
	}
	env := newEnv(a)
	env.fn = fi
	for i, p := range fi.decl.Type.Params {
		if p.Name == "" {
			continue
		}
		content := fi.sig.Params[i]
		cell := a.tr.newRef(content, p.Type.Quals)
		env.bind(p.Name, cell)
	}
	a.stmt(env, fi.decl.Body)
	a.walking = ""
}

func (a *Analysis) stmt(env *env, s cfront.Stmt) {
	switch s := s.(type) {
	case nil:
	case *cfront.Block:
		env.push()
		for _, it := range s.Items {
			a.stmt(env, it)
		}
		env.pop()
	case *cfront.DeclStmt:
		for _, d := range s.Decls {
			if v, ok := d.(*cfront.VarDecl); ok {
				a.localVar(env, v)
			}
		}
	case *cfront.ExprStmt:
		a.exprR(env, s.X)
	case *cfront.EmptyStmt:
	case *cfront.IfStmt:
		a.exprR(env, s.Cond)
		a.stmt(env, s.Then)
		a.stmt(env, s.Else)
	case *cfront.WhileStmt:
		a.exprR(env, s.Cond)
		a.stmt(env, s.Body)
	case *cfront.DoWhileStmt:
		a.stmt(env, s.Body)
		a.exprR(env, s.Cond)
	case *cfront.ForStmt:
		env.push()
		a.stmt(env, s.Init)
		if s.Cond != nil {
			a.exprR(env, s.Cond)
		}
		if s.Post != nil {
			a.exprR(env, s.Post)
		}
		a.stmt(env, s.Body)
		env.pop()
	case *cfront.ReturnStmt:
		if s.Value != nil && env.fn != nil {
			rv := a.exprR(env, s.Value)
			a.tr.subtype(rv, env.fn.sig.Ret, why(s.Pos, "returned value"))
			if rv != nil {
				for _, b := range a.suite.Bindings() {
					if h := b.A.Hooks.Return; h != nil {
						h(a.sys, b, rv.Q, why(s.Pos, "returned from "+env.fn.name))
					}
				}
			}
		}
	case *cfront.BreakStmt, *cfront.ContinueStmt, *cfront.GotoStmt:
	case *cfront.LabelStmt:
		a.stmt(env, s.Stmt)
	case *cfront.SwitchStmt:
		a.exprR(env, s.Tag)
		a.stmt(env, s.Body)
	case *cfront.CaseStmt:
		if s.Value != nil {
			a.exprR(env, s.Value)
		}
		a.stmt(env, s.Stmt)
	}
}

// localVar binds a block-scope variable. Static locals are pinned: their
// storage is shared across all calls, so their qualifiers must not be
// quantified into a scheme.
func (a *Analysis) localVar(env *env, v *cfront.VarDecl) {
	if v.Storage == cfront.SCStatic {
		a.tr.pinning = true
	}
	lv := a.tr.LValue(v.Type)
	a.tr.pinning = false
	env.bind(v.Name, lv)
	if v.Init != nil {
		a.initialize(env, lv, v.Init)
	}
}

// initialize relates an initializer to an l-value cell.
func (a *Analysis) initialize(env *env, lv *RType, init cfront.Expr) {
	if il, ok := init.(*cfront.InitList); ok {
		a.initList(env, lv.Elem, il)
		return
	}
	rv := a.exprR(env, init)
	a.tr.subtype(rv, lv.Elem, why(init.ExprPos(), "initializer"))
}

// initList relates braced initializers: array elements flow to the
// element type, struct items positionally to the fields.
func (a *Analysis) initList(env *env, content *RType, il *cfront.InitList) {
	if content == nil {
		for _, item := range il.Items {
			a.exprR(env, item)
		}
		return
	}
	switch content.Kind {
	case RRef: // array content (decayed): items are elements
		for _, item := range il.Items {
			if sub, ok := item.(*cfront.InitList); ok {
				a.initList(env, content.Elem, sub)
				continue
			}
			rv := a.exprR(env, item)
			a.tr.subtype(rv, content.Elem, why(item.ExprPos(), "array initializer element"))
		}
	case RStruct:
		i := 0
		for _, f := range content.Struct.Fields {
			if i >= len(il.Items) {
				break
			}
			item := il.Items[i]
			i++
			fieldRef, ok := a.tr.Field(content, f.Name)
			if !ok {
				continue
			}
			if sub, ok := item.(*cfront.InitList); ok {
				a.initList(env, fieldRef.Elem, sub)
				continue
			}
			rv := a.exprR(env, item)
			a.tr.subtype(rv, fieldRef.Elem, why(item.ExprPos(), "struct initializer field"))
		}
	default:
		for _, item := range il.Items {
			a.exprR(env, item)
		}
	}
}

// freshLeaf makes an unconstrained scalar.
func (a *Analysis) freshLeaf(spelling string) *RType {
	return &RType{Kind: RLeaf, Q: constraint.V(a.sys.Fresh()), Spelling: spelling}
}

// lval is a tracked l-value: the reference written through, plus guard
// qualifiers that must also be non-const when the l-value is written (a
// struct member write also writes the enclosing struct object, so a
// pointer-to-const struct protects its fields).
type lval struct {
	ref    *RType
	guards []constraint.Term
}

// exprL computes the l-value of an expression, or nil when the
// expression has no l-value this analysis tracks.
func (a *Analysis) exprL(env *env, e cfront.Expr) *lval {
	switch e := e.(type) {
	case *cfront.Ident:
		if lv, ok := env.lookup(e.Name); ok {
			return &lval{ref: lv}
		}
		if lv, ok := a.globals[e.Name]; ok {
			return &lval{ref: lv}
		}
		if a.enums[e.Name] {
			return nil
		}
		if _, ok := a.funcs[e.Name]; ok {
			return nil
		}
		// Unknown name: create an implicit pinned global so repeated
		// uses alias.
		a.tr.pinning = true
		lv := a.tr.newRef(a.freshLeaf("int"), cfront.Quals{})
		a.tr.pinning = false
		a.globals[e.Name] = lv
		return &lval{ref: lv}
	case *cfront.Unary:
		if e.Op == cfront.UDeref {
			rv := a.exprR(env, e.X)
			if rv != nil && rv.Kind == RRef {
				return &lval{ref: rv}
			}
			return nil
		}
		return nil
	case *cfront.Index:
		base := a.exprR(env, e.X)
		a.exprR(env, e.I)
		if base != nil && base.Kind == RRef {
			return &lval{ref: base}
		}
		return nil
	case *cfront.Member:
		var sv *RType
		var guards []constraint.Term
		if e.Arrow {
			rv := a.exprR(env, e.X)
			if rv != nil && rv.Kind == RRef {
				sv = rv.Elem
				guards = append(guards, rv.Q)
			}
		} else {
			inner := a.exprL(env, e.X)
			if inner != nil && inner.ref.Kind == RRef {
				sv = inner.ref.Elem
				guards = append(guards, inner.guards...)
				guards = append(guards, inner.ref.Q)
			}
		}
		if sv == nil || sv.Kind != RStruct {
			return nil
		}
		if f, ok := a.tr.Field(sv, e.Name); ok {
			return &lval{ref: f, guards: guards}
		}
		return nil
	default:
		return nil
	}
}

// forbidWrite runs every analysis's write rule (the paper's Assign') on
// an l-value: for const it bounds the reference and guard qualifiers
// away from const.
func (a *Analysis) forbidWrite(lv *lval, r constraint.Reason) {
	for _, b := range a.suite.Bindings() {
		if h := b.A.Hooks.Write; h != nil {
			h(a.sys, b, lv.ref.Q, lv.guards, r)
		}
	}
}

// exprR computes the r-value type of an expression, generating flow
// constraints along the way.
func (a *Analysis) exprR(env *env, e cfront.Expr) *RType {
	switch e := e.(type) {
	case nil:
		return nil

	case *cfront.Ident:
		if lv, ok := env.lookup(e.Name); ok {
			return lv.Elem
		}
		if lv, ok := a.globals[e.Name]; ok {
			return lv.Elem
		}
		// A function name in value or call position uses its (possibly
		// instantiated) signature.
		if fi, ok := a.funcs[e.Name]; ok {
			return a.useFunc(fi)
		}
		if a.enums[e.Name] {
			return a.freshLeaf("int")
		}
		lv := a.exprL(env, e) // creates the implicit global
		if lv != nil {
			return lv.ref.Elem
		}
		return a.freshLeaf("int")

	case *cfront.IntLit, *cfront.CharLit, *cfront.FloatLit, *cfront.SizeofType:
		return a.freshLeaf("int")

	case *cfront.SizeofExpr:
		// The operand is not evaluated; its type effects are irrelevant.
		return a.freshLeaf("int")

	case *cfront.StrLit:
		// Each string literal is a fresh unconstrained character buffer:
		// it may be viewed const or not per use site.
		return &RType{Kind: RRef, Q: constraint.V(a.sys.Fresh()),
			Elem: a.freshLeaf("char")}

	case *cfront.Unary:
		switch e.Op {
		case cfront.UDeref:
			rv := a.exprR(env, e.X)
			if rv != nil && rv.Kind == RRef {
				return rv.Elem
			}
			if rv != nil && rv.Kind == RFunc {
				// *fp where fp is a function pointer: still the function.
				return rv
			}
			return a.freshLeaf("int")
		case cfront.UAddr:
			if lv := a.exprL(env, e.X); lv != nil {
				return lv.ref
			}
			a.exprR(env, e.X)
			return &RType{Kind: RRef, Q: constraint.V(a.sys.Fresh()),
				Elem: a.freshLeaf("int")}
		case cfront.UPreInc, cfront.UPreDec:
			return a.mutate(env, e.X, e.Pos, "increment/decrement")
		default:
			a.exprR(env, e.X)
			return a.freshLeaf("int")
		}

	case *cfront.Postfix:
		return a.mutate(env, e.X, e.Pos, "increment/decrement")

	case *cfront.Binary:
		l := a.exprR(env, e.L)
		r := a.exprR(env, e.R)
		// Pointer arithmetic keeps the pointer type.
		if l != nil && l.Kind == RRef && (e.Op == cfront.BAdd || e.Op == cfront.BSub) {
			return l
		}
		if r != nil && r.Kind == RRef && e.Op == cfront.BAdd {
			return r
		}
		return a.freshLeaf("int")

	case *cfront.AssignExpr:
		lv := a.exprL(env, e.L)
		rv := a.exprR(env, e.R)
		if lv == nil {
			// Untracked l-value (e.g. cast target): effects severed.
			a.exprR(env, e.L)
			return rv
		}
		a.forbidWrite(lv, why(e.Pos, "assignment target is written"))
		if e.Op == cfront.PlainAssign {
			a.tr.subtype(rv, lv.ref.Elem, why(e.Pos, "assigned value"))
		}
		return lv.ref.Elem

	case *cfront.Cond:
		a.exprR(env, e.C)
		t := a.exprR(env, e.T)
		f := a.exprR(env, e.F)
		if t != nil && f != nil && t.Kind == RRef && f.Kind == RRef {
			res := a.freshen(t, map[*RType]*RType{})
			a.tr.subtype(t, res, why(e.Pos, "conditional branch"))
			a.tr.subtype(f, res, why(e.Pos, "conditional branch"))
			return res
		}
		if t != nil {
			return t
		}
		return f

	case *cfront.Call:
		var fn *RType
		var callee *funcInfo
		if id, ok := e.Fn.(*cfront.Ident); ok {
			if _, isLocal := env.lookup(id.Name); !isLocal {
				if fi, ok := a.funcs[id.Name]; ok {
					fn = a.useFunc(fi)
					callee = fi
				} else if _, isGlobal := a.globals[id.Name]; !isGlobal {
					// Implicit declaration: int f(...). Per analysis,
					// either a prelude entry annotates the arguments or
					// the conservative rule applies (for const: pointer
					// arguments are treated as written through).
					fi := &funcInfo{
						name: id.Name,
						decl: &cfront.FuncDecl{
							Name: id.Name,
							Type: &cfront.Type{Kind: cfront.TFunc,
								Ret: cfront.NewPrim(cfront.TInt, "int"), Variadic: true},
							Pos: id.Pos,
						},
						scc: -1,
					}
					a.funcs[id.Name] = fi
					a.makeLibSignature(fi)
					fn = fi.sig
					for i, arg := range e.Args {
						rv := a.exprR(env, arg)
						if rv == nil {
							continue
						}
						for _, b := range a.suite.Bindings() {
							if ent, ok := b.Entry(id.Name); ok {
								b.ApplyParam(a.sys, ent, i, rv.Q, arg.ExprPos().String())
								continue
							}
							if b.A.Hooks.LibRef != nil && rv.Kind == RRef {
								b.A.Hooks.LibRef(a.sys, b, analysis.LibUse{
									Fn: id.Name, Pos: arg.ExprPos().String(), Implicit: true,
								}, rv.Q)
							}
						}
					}
					return fn.Ret
				}
			}
		}
		if fn == nil {
			fn = a.exprR(env, e.Fn)
		}
		if fn == nil || fn.Kind != RFunc {
			// Calling through something we do not track.
			for _, arg := range e.Args {
				a.exprR(env, arg)
			}
			return a.freshLeaf("int")
		}
		for i, arg := range e.Args {
			rv := a.exprR(env, arg)
			if i < len(fn.Params) {
				a.tr.subtype(rv, fn.Params[i], why(arg.ExprPos(), "function argument"))
			}
			// Extra (variadic or excess) arguments are ignored, as the
			// paper does for wrong-arity calls.
			if callee != nil && !callee.defined {
				// Library call with a prototype: prelude seeds/sinks
				// apply at the argument position.
				a.preludeArg(callee.name, i, rv, arg.ExprPos())
			}
		}
		return fn.Ret

	case *cfront.Index:
		if lv := a.exprL(env, e); lv != nil {
			return lv.ref.Elem
		}
		return a.freshLeaf("int")

	case *cfront.Member:
		if lv := a.exprL(env, e); lv != nil {
			return lv.ref.Elem
		}
		return a.freshLeaf("int")

	case *cfront.Cast:
		// Explicit casts lose any association between the value being
		// cast and the resulting type (Section 4.2).
		a.exprR(env, e.X)
		return a.tr.RValue(e.To)

	case *cfront.Comma:
		a.exprR(env, e.L)
		return a.exprR(env, e.R)

	case *cfront.InitList:
		for _, item := range e.Items {
			a.exprR(env, item)
		}
		return a.freshLeaf("int")

	default:
		return a.freshLeaf("int")
	}
}

// mutate handles ++/--: the target cell is written through.
func (a *Analysis) mutate(env *env, x cfront.Expr, pos cfront.Pos, what string) *RType {
	lv := a.exprL(env, x)
	if lv == nil {
		return a.exprR(env, x)
	}
	a.forbidWrite(lv, why(pos, what+" target is written"))
	return lv.ref.Elem
}

// freshen copies a type shape with all-fresh qualifier variables (struct
// values stay shared), used for merge points like the conditional
// operator.
func (a *Analysis) freshen(t *RType, memo map[*RType]*RType) *RType {
	if t == nil {
		return nil
	}
	if t.Kind == RStruct {
		return t
	}
	if got, ok := memo[t]; ok {
		return got
	}
	out := &RType{Kind: t.Kind, Q: constraint.V(a.sys.Fresh()),
		Variadic: t.Variadic, Spelling: t.Spelling, Struct: t.Struct, Fields: t.Fields}
	memo[t] = out
	out.Elem = a.freshen(t.Elem, memo)
	out.Ret = a.freshen(t.Ret, memo)
	for _, p := range t.Params {
		out.Params = append(out.Params, a.freshen(p, memo))
	}
	return out
}
