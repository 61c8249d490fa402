package constinfer

import (
	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constraint"
)

// binding is one name in scope and its l-value type.
type binding struct {
	name string
	lv   *RType
}

// env is the lexical environment during body analysis: the l-value
// types of the parameters and locals in scope, in declaration order.
// marks[i] is where the i-th open block's bindings start. A lookup
// searches from the back, so an inner declaration shadows an outer one
// and a redeclaration in the same block shadows the earlier one.
// Analysis keeps one env and resets it for every body and global
// initializer, so its slices are reused.
type env struct {
	binds []binding
	marks []int
	fn    *funcInfo // for return statements; nil for global initializers
}

// reset empties the environment for a walk of fn's body (nil for a
// global initializer).
func (e *env) reset(fn *funcInfo) {
	e.binds, e.marks, e.fn = e.binds[:0], e.marks[:0], fn
}

func (e *env) push() { e.marks = append(e.marks, len(e.binds)) }

func (e *env) pop() {
	e.binds = e.binds[:e.marks[len(e.marks)-1]]
	e.marks = e.marks[:len(e.marks)-1]
}

func (e *env) bind(name string, lv *RType) {
	e.binds = append(e.binds, binding{name, lv})
}

func (e *env) lookup(name string) (*RType, bool) {
	for i := len(e.binds) - 1; i >= 0; i-- {
		if e.binds[i].name == name {
			return e.binds[i].lv, true
		}
	}
	return nil, false
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
	a.tr.file = fi.file
	env := &a.env
	env.reset(fi)
	for i, p := range fi.decl.Type.Params() {
		if p.Name == "" {
			continue
		}
		content := fi.sig.fn.params[i]
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
			a.tr.subtype(rv, env.fn.sig.Ret(), a.tr.why(s.Pos, "returned value"))
			if rv != nil {
				a.suite.Return(a.sys, rv.Q, a.tr.pos(s.Pos), env.fn.name)
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
	a.tr.subtype(rv, lv.Elem, a.tr.why(init.ExprPos(), "initializer"))
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
			a.tr.subtype(rv, content.Elem, a.tr.why(item.ExprPos(), "array initializer element"))
		}
	case RStruct:
		i := 0
		for _, f := range content.shared.st.Fields {
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
			a.tr.subtype(rv, fieldRef.Elem, a.tr.why(item.ExprPos(), "struct initializer field"))
		}
	default:
		for _, item := range il.Items {
			a.exprR(env, item)
		}
	}
}

// freshLeaf makes an unconstrained scalar with the given leaf record.
func (a *Analysis) freshLeaf(leaf *sharedPart) *RType {
	return a.tr.rtype(RType{Kind: RLeaf, Q: constraint.V(a.sys.Fresh()), shared: leaf})
}

// lval is a tracked l-value: the reference written through, plus guard
// qualifiers that must also be non-const when the l-value is written (a
// struct member write also writes the enclosing struct object, so a
// pointer-to-const struct protects its fields).
type lval struct {
	ref    *RType
	guards []constraint.Term
}

// exprL computes the l-value of an expression; ok is false when the
// expression has no l-value this analysis tracks.
func (a *Analysis) exprL(env *env, e cfront.Expr) (lv lval, ok bool) {
	switch e := e.(type) {
	case *cfront.Ident:
		if ref, ok := env.lookup(e.Name); ok {
			return lval{ref: ref}, true
		}
		if ref, ok := a.globals[e.Name]; ok {
			return lval{ref: ref}, true
		}
		if a.enums[e.Name] {
			return lval{}, false
		}
		if _, ok := a.funcs[e.Name]; ok {
			return lval{}, false
		}
		// Unknown name: create an implicit pinned global so repeated
		// uses alias.
		a.tr.pinning = true
		ref := a.tr.newRef(a.freshLeaf(intLeaf), cfront.Quals{})
		a.tr.pinning = false
		a.globals[e.Name] = ref
		return lval{ref: ref}, true
	case *cfront.Unary:
		if e.Op == cfront.UDeref {
			rv := a.exprR(env, e.X)
			if rv != nil && rv.Kind == RRef {
				return lval{ref: rv}, true
			}
		}
		return lval{}, false
	case *cfront.Index:
		base := a.exprR(env, e.X)
		a.exprR(env, e.I)
		if base != nil && base.Kind == RRef {
			return lval{ref: base}, true
		}
		return lval{}, false
	case *cfront.Member:
		var sv *RType
		var guards []constraint.Term
		if e.Arrow {
			rv := a.exprR(env, e.X)
			if rv != nil && rv.Kind == RRef {
				sv = rv.Elem
				guards = append(guards, rv.Q)
			}
		} else if inner, ok := a.exprL(env, e.X); ok && inner.ref.Kind == RRef {
			sv = inner.ref.Elem
			guards = append(guards, inner.guards...)
			guards = append(guards, inner.ref.Q)
		}
		if sv == nil || sv.Kind != RStruct {
			return lval{}, false
		}
		if f, ok := a.tr.Field(sv, e.Name); ok {
			return lval{ref: f, guards: guards}, true
		}
		return lval{}, false
	default:
		return lval{}, false
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
			return a.freshLeaf(intLeaf)
		}
		if lv, ok := a.exprL(env, e); ok { // creates the implicit global
			return lv.ref.Elem
		}
		return a.freshLeaf(intLeaf)

	case *cfront.IntLit, *cfront.CharLit, *cfront.FloatLit, *cfront.SizeofType:
		return a.freshLeaf(intLeaf)

	case *cfront.SizeofExpr:
		// The operand is not evaluated; its type effects are irrelevant.
		return a.freshLeaf(intLeaf)

	case *cfront.StrLit:
		// Each string literal is a fresh unconstrained character buffer:
		// it may be viewed const or not per use site.
		return a.tr.rtype(RType{Kind: RRef, Q: constraint.V(a.sys.Fresh()),
			Elem: a.freshLeaf(charLeaf)})

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
			return a.freshLeaf(intLeaf)
		case cfront.UAddr:
			if lv, ok := a.exprL(env, e.X); ok {
				return lv.ref
			}
			a.exprR(env, e.X)
			return a.tr.rtype(RType{Kind: RRef, Q: constraint.V(a.sys.Fresh()),
				Elem: a.freshLeaf(intLeaf)})
		case cfront.UPreInc, cfront.UPreDec:
			return a.mutate(env, e.X, e.Pos, "increment/decrement")
		default:
			a.exprR(env, e.X)
			return a.freshLeaf(intLeaf)
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
		return a.freshLeaf(intLeaf)

	case *cfront.AssignExpr:
		lv, ok := a.exprL(env, e.L)
		rv := a.exprR(env, e.R)
		if !ok {
			// Untracked l-value (e.g. cast target): effects severed.
			a.exprR(env, e.L)
			return rv
		}
		a.suite.Write(a.sys, lv.ref.Q, lv.guards, a.tr.why(e.Pos, "assignment target is written"))
		if e.Op == cfront.PlainAssign {
			a.tr.subtype(rv, lv.ref.Elem, a.tr.why(e.Pos, "assigned value"))
		}
		return lv.ref.Elem

	case *cfront.Cond:
		a.exprR(env, e.C)
		t := a.exprR(env, e.T)
		f := a.exprR(env, e.F)
		if t != nil && f != nil && t.Kind == RRef && f.Kind == RRef {
			res := a.freshen(t)
			a.tr.subtype(t, res, a.tr.why(e.Pos, "conditional branch"))
			a.tr.subtype(f, res, a.tr.why(e.Pos, "conditional branch"))
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
						file: a.tr.file,
						decl: &cfront.FuncDecl{
							Name: id.Name,
							Type: cfront.NewFunc(cfront.NewPrim(cfront.TInt, "int"), nil, true),
							Pos:  id.Pos,
						},
						index: -1,
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
								b.ApplyParam(a.sys, ent, i, rv.Q, a.tr.pos(arg.ExprPos()))
								continue
							}
							if b.A.Hooks.LibRef != nil && rv.Kind == RRef {
								b.A.Hooks.LibRef(a.sys, b, analysis.LibUse{
									Fn: id.Name, Pos: a.tr.pos(arg.ExprPos()), Implicit: true,
								}, rv.Q)
							}
						}
					}
					return fn.Ret()
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
			return a.freshLeaf(intLeaf)
		}
		for i, arg := range e.Args {
			rv := a.exprR(env, arg)
			if i < len(fn.fn.params) {
				a.tr.subtype(rv, fn.fn.params[i], a.tr.why(arg.ExprPos(), "function argument"))
			}
			// Extra (variadic or excess) arguments are ignored, as the
			// paper does for wrong-arity calls.
			if callee != nil && !callee.defined {
				// Library call with a prototype: prelude seeds/sinks
				// apply at the argument position.
				a.preludeArg(callee.name, i, rv, arg.ExprPos())
			}
		}
		return fn.fn.ret

	case *cfront.Index:
		if lv, ok := a.exprL(env, e); ok {
			return lv.ref.Elem
		}
		return a.freshLeaf(intLeaf)

	case *cfront.Member:
		if lv, ok := a.exprL(env, e); ok {
			return lv.ref.Elem
		}
		return a.freshLeaf(intLeaf)

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
		return a.freshLeaf(intLeaf)

	default:
		return a.freshLeaf(intLeaf)
	}
}

// mutate handles ++/--: the target cell is written through.
func (a *Analysis) mutate(env *env, x cfront.Expr, pos cfront.Pos, what string) *RType {
	lv, ok := a.exprL(env, x)
	if !ok {
		return a.exprR(env, x)
	}
	a.suite.Write(a.sys, lv.ref.Q, lv.guards, a.tr.why(pos, what+" target is written"))
	return lv.ref.Elem
}

// freshen copies a type shape with all-fresh qualifier variables (struct
// values stay shared), used for merge points like the conditional
// operator. The copy relies on a type being a tree below its structs:
// no node is reached twice.
func (a *Analysis) freshen(t *RType) *RType {
	if t == nil {
		return nil
	}
	if t.Kind == RStruct {
		return t
	}
	q := constraint.V(a.sys.Fresh())
	if t.Kind == RFunc {
		out := newFunc(q, t.Variadic, len(t.fn.params))
		out.fn.ret = a.freshen(t.fn.ret)
		for i, p := range t.fn.params {
			out.fn.params[i] = a.freshen(p)
		}
		return out
	}
	return a.tr.rtype(RType{Kind: t.Kind, Q: q, shared: t.shared, Elem: a.freshen(t.Elem)})
}
