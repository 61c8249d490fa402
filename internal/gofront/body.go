package gofront

// Constraint generation over Go function bodies — the Go analogue of
// constinfer/body.go. The walk is syntax-directed over the type-checked
// AST: expressions produce r-value rtypes, assignment targets produce
// l-values (a reference plus the guard qualifiers of any enclosing
// objects), and every mutation runs the suite's Write hooks (the
// paper's Assign' rule), so "this reference is written through" means
// the same thing for Go as it does for C.
//
// Mutations, in Go terms:
//
//	*p = v, p.f = v      write through the pointer
//	s[i] = v, append     write through the slice (elements share a cell)
//	m[k] = v, delete     write through the map
//	ch <- v              write through the channel
//	copy(dst, src)       write through dst
//
// Calls to functions defined in the corpus flow arguments into the
// callee's shared signature (monomorphic, Section 4.2's C type system).
// Calls to imported functions consult the prelude — result annotations
// seed, parameter annotations sink, per call site — and otherwise fall
// back to the conservative library rule: every reference level of every
// argument may be written through. Interface boxing severs structure
// but carries the top-level qualifier, the treatment the paper gives C
// casts.

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/constraint"
)

// lval is an assignable reference with the guard qualifiers of
// enclosing values (writing x.f also "writes" x).
type lval struct {
	ref    *rtype
	guards []constraint.Term
}

// bodyCtx is the per-function walk state.
type bodyCtx struct {
	e   *engine
	fi  *funcInfo
	pkg *pkgInfo
	// results are the cells of named results, index-aligned with
	// sig.rets; nil entries for unnamed results.
	results []*rtype
}

// analyzeBody generates constraints for one function definition.
func (e *engine) analyzeBody(fi *funcInfo) {
	bc := &bodyCtx{e: e, fi: fi, pkg: fi.pkg}
	sig := fi.obj.Type().(*types.Signature)
	bc.bindSignature(fi.decl.Type, fi.decl.Recv, sig, fi.sig)
	bc.stmt(fi.decl.Body)
}

// bindSignature binds receiver, parameters, and named results to cells
// whose contents are the shared signature types.
func (bc *bodyCtx) bindSignature(ft *ast.FuncType, recv *ast.FieldList, sig *types.Signature, rsig *rtype) {
	e := bc.e
	idx := 0
	bindField := func(name *ast.Ident, content *rtype) {
		if name == nil || name.Name == "_" {
			return
		}
		if obj := bc.pkg.Info.Defs[name]; obj != nil {
			e.env[obj] = e.tr.newRef(content)
		}
	}
	if recv != nil && len(recv.List) > 0 && len(recv.List[0].Names) > 0 {
		bindField(recv.List[0].Names[0], rsig.params[0])
	}
	if sig.Recv() != nil {
		idx = 1
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if idx < len(rsig.params) {
					bindField(name, rsig.params[idx])
				}
				idx++
			}
		}
	}
	bc.results = make([]*rtype, len(rsig.rets))
	if ft.Results != nil {
		ri := 0
		for _, field := range ft.Results.List {
			if len(field.Names) == 0 {
				ri++
				continue
			}
			for _, name := range field.Names {
				if ri < len(rsig.rets) {
					cell := e.tr.newRef(rsig.rets[ri])
					bc.results[ri] = cell
					bindField(name, rsig.rets[ri])
					// The named result's cell content IS the shared
					// result type, so writes to it flow to callers.
					if obj := bc.pkg.Info.Defs[name]; obj != nil {
						e.env[obj] = cell
					}
				}
				ri++
			}
		}
	}
}

func (bc *bodyCtx) stmt(s ast.Stmt) {
	e := bc.e
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, it := range s.List {
			bc.stmt(it)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && gd.Tok == token.VAR {
				bc.valueSpec(vs)
			}
		}
	case *ast.ExprStmt:
		bc.exprR(s.X)
	case *ast.EmptyStmt, *ast.BranchStmt:
	case *ast.LabeledStmt:
		bc.stmt(s.Stmt)
	case *ast.AssignStmt:
		bc.assign(s)
	case *ast.IncDecStmt:
		if lv := bc.exprL(s.X); lv != nil {
			e.suite.Write(e.sys, lv.ref.q, lv.guards, e.why(s, "incremented"))
		}
	case *ast.SendStmt:
		ch := bc.exprR(s.Chan)
		v := bc.exprR(s.Value)
		if ch != nil && ch.kind == rref {
			e.suite.Write(e.sys, ch.q, nil, e.why(s, "sent on channel"))
			e.tr.subtype(v, ch.elem, e.why(s, "channel send"))
		}
	case *ast.ReturnStmt:
		bc.returnStmt(s)
	case *ast.IfStmt:
		bc.stmt(s.Init)
		bc.exprR(s.Cond)
		bc.stmt(s.Body)
		bc.stmt(s.Else)
	case *ast.ForStmt:
		bc.stmt(s.Init)
		bc.exprR(s.Cond)
		bc.stmt(s.Post)
		bc.stmt(s.Body)
	case *ast.RangeStmt:
		bc.rangeStmt(s)
	case *ast.SwitchStmt:
		bc.stmt(s.Init)
		bc.exprR(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, x := range cc.List {
				bc.exprR(x)
			}
			for _, st := range cc.Body {
				bc.stmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		bc.typeSwitch(s)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			bc.stmt(cc.Comm)
			for _, st := range cc.Body {
				bc.stmt(st)
			}
		}
	case *ast.GoStmt:
		bc.exprR(s.Call)
	case *ast.DeferStmt:
		bc.exprR(s.Call)
	}
}

// valueSpec handles `var x T = v` declarations inside a body.
func (bc *bodyCtx) valueSpec(vs *ast.ValueSpec) {
	rvs := bc.values(vs.Values, len(vs.Names))
	for i, name := range vs.Names {
		if name.Name != "_" {
			bc.define(name, at(rvs, i), "initialization")
		}
	}
}

// at returns rvs[i], or nil past the end of rvs.
func at(rvs []*rtype, i int) *rtype {
	if i < len(rvs) {
		return rvs[i]
	}
	return nil
}

// define binds the variable id declares, if it declares one, to a fresh
// cell, and flows rv into the cell's contents unless rv is nil; what
// names the binding in the constraint's reason. It reports whether id
// declares a variable.
func (bc *bodyCtx) define(id *ast.Ident, rv *rtype, what string) bool {
	obj := bc.pkg.Info.Defs[id]
	if obj == nil {
		return false
	}
	e := bc.e
	cell := e.tr.lvalue(obj.Type())
	e.env[obj] = cell
	if rv != nil {
		e.tr.subtype(rv, cell.elem, e.why(id, what+" of "+id.Name))
	}
	return true
}

// values evaluates the right-hand side of an assignment, a var spec or a
// return with n targets: one expression giving n values (a call with n
// results, a map index, a type assertion or a receive with ok), or one
// value per expression.
func (bc *bodyCtx) values(exprs []ast.Expr, n int) []*rtype {
	if len(exprs) == 1 && n > 1 {
		if call, ok := ast.Unparen(exprs[0]).(*ast.CallExpr); ok {
			return bc.call(call, n)
		}
		out := make([]*rtype, n)
		out[0] = bc.exprR(exprs[0]) // v, ok := m[k] / x.(T) / <-ch
		for i := 1; i < n; i++ {
			out[i] = bc.e.tr.leaf()
		}
		return out
	}
	out := make([]*rtype, len(exprs))
	for i, x := range exprs {
		out[i] = bc.exprR(x)
	}
	return out
}

// assign handles every flavor of AssignStmt.
func (bc *bodyCtx) assign(s *ast.AssignStmt) {
	e := bc.e
	rvs := bc.values(s.Rhs, len(s.Lhs))
	for i, l := range s.Lhs {
		rv := at(rvs, i)
		id, isIdent := l.(*ast.Ident)
		if isIdent && id.Name == "_" {
			continue
		}
		// := defines its new variables; it may also re-assign an
		// existing one, handled below via Uses.
		if s.Tok == token.DEFINE && isIdent && bc.define(id, rv, "initialization") {
			continue
		}
		lv := bc.exprL(l)
		if lv == nil {
			continue
		}
		e.suite.Write(e.sys, lv.ref.q, lv.guards, e.why(l, "assigned"))
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			e.tr.subtype(rv, lv.ref.elem, e.why(l, "assignment"))
		} else if rv != nil && lv.ref.elem != nil {
			// Compound assignment (+=, |=, ...): the operand's
			// qualifier joins the target's contents.
			e.sys.Add(rv.q, lv.ref.elem.q, e.why(l, "compound assignment"))
		}
	}
}

func (bc *bodyCtx) returnStmt(s *ast.ReturnStmt) {
	e := bc.e
	if len(s.Results) == 0 {
		return // bare return: named results already share the ret types
	}
	rets := bc.fi.sig.rets
	why := e.why(s, "returned from "+bc.fi.name)
	for i, rv := range bc.values(s.Results, len(rets)) {
		if i < len(rets) {
			e.tr.subtype(rv, rets[i], why)
		}
		if rv != nil {
			e.suite.Return(e.sys, rv.q, why.Pos, bc.fi.name)
		}
	}
}

func (bc *bodyCtx) rangeStmt(s *ast.RangeStmt) {
	e := bc.e
	x := bc.exprR(s.X)
	var valueContent *rtype
	if x != nil && x.kind == rref {
		valueContent = x.elem // slice/array/map/chan element cell
	}
	bindRange := func(expr ast.Expr, content *rtype) {
		if expr == nil {
			return
		}
		id, isIdent := expr.(*ast.Ident)
		if isIdent && id.Name == "_" {
			return
		}
		if s.Tok == token.DEFINE && isIdent && bc.define(id, content, "range binding") {
			return
		}
		lv := bc.exprL(expr)
		if lv != nil {
			e.suite.Write(e.sys, lv.ref.q, lv.guards, e.why(expr, "assigned by range"))
			if content != nil {
				e.tr.subtype(content, lv.ref.elem, e.why(expr, "range binding"))
			}
		}
	}
	// Keys are untracked (map keys and indices are leaves); values
	// carry the element translation.
	bindRange(s.Key, nil)
	bindRange(s.Value, valueContent)
	bc.stmt(s.Body)
}

func (bc *bodyCtx) typeSwitch(s *ast.TypeSwitchStmt) {
	e := bc.e
	bc.stmt(s.Init)
	var subject *rtype
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				subject = bc.exprR(ta.X)
			}
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			subject = bc.exprR(ta.X)
		}
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		for _, x := range cc.List {
			bc.exprR(x)
		}
		// Each clause binds its own implicit object with the clause's
		// narrowed type; the subject's top-level qualifier flows in
		// (unboxing is a cast: structure severed, qualifier kept).
		if obj := bc.pkg.Info.Implicits[cc]; obj != nil {
			cell := e.tr.lvalue(obj.Type())
			e.env[obj] = cell
			if subject != nil {
				e.sys.Add(subject.q, cell.elem.q, e.why(cc, "type switch binding"))
			}
		}
		for _, st := range cc.Body {
			bc.stmt(st)
		}
	}
}

// exprL computes the l-value of an expression, or nil when the
// expression has no reference this analysis tracks.
func (bc *bodyCtx) exprL(e ast.Expr) *lval {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if cell, _ := bc.use(x, false); cell != nil {
			return &lval{ref: cell}
		}
		return nil
	case *ast.StarExpr:
		rv := bc.exprR(x.X)
		if rv != nil && rv.kind == rref {
			return &lval{ref: rv}
		}
		return nil
	case *ast.IndexExpr:
		// Writing x[i]: elements share one cell, so the write targets
		// the container's reference itself.
		rv := bc.exprR(x.X)
		bc.exprR(x.Index)
		if rv != nil && rv.kind == rref {
			return &lval{ref: rv}
		}
		return nil
	case *ast.SelectorExpr:
		return bc.selectorL(x)
	default:
		return nil
	}
}

// selectorL resolves x.f as an l-value: the shared field reference of
// the struct type, guarded by the enclosing object's qualifier (writing
// x.f also writes x; writing p.f writes through p).
func (bc *bodyCtx) selectorL(x *ast.SelectorExpr) *lval {
	sel := bc.pkg.Info.Selections[x]
	if sel == nil {
		return bc.exprL(x.Sel) // package-qualified: pkg.Var
	}
	if sel.Kind() != types.FieldVal {
		return nil
	}
	base := bc.exprR(x.X)
	// Walk to the struct value through any pointer (implicit deref) and
	// collect guards along the way.
	var guards []constraint.Term
	sv := base
	for sv != nil && sv.kind == rref {
		guards = append(guards, sv.q)
		sv = sv.elem
	}
	if sv == nil || sv.kind != rstruct {
		return nil
	}
	f, ok := sv.fields[x.Sel.Name]
	if !ok {
		return nil // embedded-field promotion path not modeled; severed
	}
	guards = append(guards, sv.q)
	return &lval{ref: f, guards: guards}
}

// use resolves a used name, an identifier or the name of a
// package-qualified selector, to the cell of its object when the walk
// has bound one (a global, parameter or local of the corpus). With
// rvalue set it also returns the name's r-value: the cell's contents, a
// defined function's shared signature, a fresh translation of the type
// of an imported variable or function, or an opaque leaf. An l-value
// use asks for no r-value, which would take fresh variables.
func (bc *bodyCtx) use(id *ast.Ident, rvalue bool) (cell, rv *rtype) {
	en := bc.e
	obj := usedObject(bc.pkg, id)
	if cell, ok := en.env[obj]; ok {
		return cell, cell.elem
	}
	if !rvalue {
		return nil, nil
	}
	switch o := obj.(type) {
	case *types.Var:
		// A variable from a package outside the analyzed corpus (an
		// imported global): an opaque fresh value.
		return nil, en.tr.rvalue(o.Type())
	case *types.Func:
		if fi, ok := en.funcByObj[o]; ok {
			return nil, fi.sig
		}
		return nil, en.tr.rvalue(o.Type())
	}
	return nil, en.tr.leaf()
}

// usedObject resolves an identifier to its object, uses or defs.
func usedObject(pkg *pkgInfo, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// exprR computes the r-value type of an expression, generating flow
// constraints along the way.
func (bc *bodyCtx) exprR(e ast.Expr) *rtype {
	en := bc.e
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.ParenExpr:
		return bc.exprR(x.X)

	case *ast.Ident:
		_, rv := bc.use(x, true)
		return rv

	case *ast.FuncLit:
		return bc.funcLit(x)

	case *ast.CompositeLit:
		return bc.compositeLit(x)

	case *ast.UnaryExpr:
		return bc.unary(x)

	case *ast.BinaryExpr:
		l := bc.exprR(x.X)
		r := bc.exprR(x.Y)
		// The result of an operator carries both operands' qualifiers
		// (string concatenation of a tainted part is tainted).
		res := en.tr.leaf()
		if l != nil {
			en.sys.Add(l.q, res.q, en.why(x, "operand of "+x.Op.String()))
		}
		if r != nil {
			en.sys.Add(r.q, res.q, en.why(x, "operand of "+x.Op.String()))
		}
		return res

	case *ast.StarExpr:
		rv := bc.exprR(x.X)
		if rv != nil && rv.kind == rref {
			return rv.elem
		}
		return en.tr.leaf()

	case *ast.IndexExpr:
		if tv, ok := bc.pkg.Info.Types[x.X]; ok && tv.IsType() {
			return bc.exprR(x.X) // generic instantiation of a type
		}
		rv := bc.exprR(x.X)
		bc.exprR(x.Index)
		if rv != nil && rv.kind == rref {
			return rv.elem
		}
		if rv != nil {
			// Indexing a string (or an untracked shape): the element
			// carries the container's qualifier.
			res := en.tr.leaf()
			en.sys.Add(rv.q, res.q, en.why(x, "indexed"))
			return res
		}
		return en.tr.leaf()

	case *ast.IndexListExpr:
		return bc.exprR(x.X) // generic instantiation

	case *ast.SliceExpr:
		rv := bc.exprR(x.X)
		bc.exprR(x.Low)
		bc.exprR(x.High)
		bc.exprR(x.Max)
		return rv // a slice of x aliases x

	case *ast.SelectorExpr:
		return bc.selectorR(x)

	case *ast.TypeAssertExpr:
		rv := bc.exprR(x.X)
		res := en.tr.rvalue(typeOf(bc.pkg, x))
		if rv != nil && res != nil {
			// Unboxing: structure severed, qualifier kept.
			en.sys.Add(rv.q, res.q, en.why(x, "type assertion"))
		}
		return res

	case *ast.CallExpr:
		return bc.call(x, 1)[0]

	case *ast.KeyValueExpr:
		bc.exprR(x.Key)
		return bc.exprR(x.Value)

	default:
		// Literals, type expressions and the rest: an opaque leaf.
		return en.tr.leaf()
	}
}

// unary handles &x, <-ch, and the scalar operators.
func (bc *bodyCtx) unary(x *ast.UnaryExpr) *rtype {
	en := bc.e
	switch x.Op {
	case token.AND:
		// &x: the address of the l-value IS its reference.
		if lv := bc.exprL(x.X); lv != nil {
			return lv.ref
		}
		// &T{...}: a fresh cell holding the composite value.
		rv := bc.exprR(x.X)
		return en.tr.newRef(rv)
	case token.ARROW:
		rv := bc.exprR(x.X)
		if rv != nil && rv.kind == rref {
			return rv.elem
		}
		return en.tr.leaf()
	default:
		rv := bc.exprR(x.X)
		res := en.tr.leaf()
		if rv != nil {
			en.sys.Add(rv.q, res.q, en.why(x, "operand of "+x.Op.String()))
		}
		return res
	}
}

// funcLit translates a function literal and analyzes its body inline;
// captured variables resolve through the shared object-keyed env, so
// closure capture needs no extra machinery.
func (bc *bodyCtx) funcLit(x *ast.FuncLit) *rtype {
	en := bc.e
	sig, ok := typeOf(bc.pkg, x).(*types.Signature)
	if !ok {
		return en.tr.leaf()
	}
	rsig := en.tr.signature(sig)
	// The literal's returns constrain its own rets, not the enclosing
	// function's: the inner walk sees a funcInfo view with the
	// literal's signature.
	litFi := &funcInfo{name: bc.fi.name + ".func", obj: bc.fi.obj, decl: bc.fi.decl, pkg: bc.pkg, sig: rsig}
	inner := &bodyCtx{e: en, fi: litFi, pkg: bc.pkg}
	inner.bindSignature(x.Type, nil, sig, rsig)
	inner.stmt(x.Body)
	return rsig
}

// compositeLit builds a fresh value of the literal's type and flows the
// element expressions into its cells.
func (bc *bodyCtx) compositeLit(x *ast.CompositeLit) *rtype {
	en := bc.e
	rv := en.tr.rvalue(typeOf(bc.pkg, x))
	for _, elt := range x.Elts {
		var valExpr ast.Expr = elt
		var key *ast.Ident
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			valExpr = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				key = id
			} else {
				bc.exprR(kv.Key)
			}
		}
		ev := bc.exprR(valExpr)
		switch {
		case rv.kind == rstruct && key != nil:
			if f, ok := rv.fields[key.Name]; ok {
				en.tr.subtype(ev, f.elem, en.why(valExpr, "struct literal field "+key.Name))
			}
		case rv.kind == rstruct && key == nil:
			// Positional struct literal: field order matches the
			// type's declaration order, which the fields map does not
			// preserve — resolve through go/types.
			if st, ok := typeOf(bc.pkg, x).Underlying().(*types.Struct); ok {
				for i := range x.Elts {
					if x.Elts[i] == elt && i < st.NumFields() {
						if f, ok := rv.fields[st.Field(i).Name()]; ok {
							en.tr.subtype(ev, f.elem, en.why(valExpr, "struct literal field "+st.Field(i).Name()))
						}
					}
				}
			}
		case rv.kind == rref:
			en.tr.subtype(ev, rv.elem, en.why(valExpr, "composite literal element"))
		}
	}
	return rv
}

// selectorR resolves x.f as an r-value: field read, method value, or
// package-qualified name.
func (bc *bodyCtx) selectorR(x *ast.SelectorExpr) *rtype {
	en := bc.e
	sel := bc.pkg.Info.Selections[x]
	if sel == nil {
		return bc.exprR(x.Sel) // package-qualified: pkg.Name
	}
	switch sel.Kind() {
	case types.FieldVal:
		if lv := bc.selectorL(x); lv != nil {
			return lv.ref.elem
		}
		bc.exprR(x.X)
		return en.tr.rvalue(typeOf(bc.pkg, x))
	default:
		// Method value or expression: handled at the call site; as a
		// bare value it is the (possibly defined) method signature.
		bc.exprR(x.X)
		if fn, ok := sel.Obj().(*types.Func); ok {
			if fi, ok := en.funcByObj[fn]; ok {
				return fi.sig
			}
			return en.tr.rvalue(fn.Type())
		}
		return en.tr.leaf()
	}
}

func typeOf(pkg *pkgInfo, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
