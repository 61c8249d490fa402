package lambda

// Subst replaces free occurrences of name in e by repl. Binders shadowing
// name stop the substitution. Capture is the caller's concern: the
// evaluator only substitutes replacements whose free variables cannot be
// lexed as source identifiers, so generated programs cannot capture them.
func Subst(name string, repl Expr, e Expr) Expr {
	switch e := e.(type) {
	case *Var:
		if e.Name == name {
			return repl
		}
		return e
	case *IntLit, *UnitLit:
		return e
	case *Lam:
		if e.Param == name {
			return e
		}
		return &Lam{Param: e.Param, Body: Subst(name, repl, e.Body), P: e.P}
	case *App:
		return &App{Fn: Subst(name, repl, e.Fn), Arg: Subst(name, repl, e.Arg), P: e.P}
	case *If:
		return &If{Cond: Subst(name, repl, e.Cond), Then: Subst(name, repl, e.Then), Else: Subst(name, repl, e.Else), P: e.P}
	case *Let:
		init := Subst(name, repl, e.Init)
		body := e.Body
		if e.Name != name {
			body = Subst(name, repl, body)
		}
		return &Let{Name: e.Name, Init: init, Body: body, P: e.P}
	case *LetRec:
		if e.Name == name {
			return e // bound in both init and body
		}
		return &LetRec{Name: e.Name, Init: Subst(name, repl, e.Init), Body: Subst(name, repl, e.Body), P: e.P}
	case *Ref:
		return &Ref{E: Subst(name, repl, e.E), P: e.P}
	case *Deref:
		return &Deref{E: Subst(name, repl, e.E), P: e.P}
	case *Assign:
		return &Assign{Lhs: Subst(name, repl, e.Lhs), Rhs: Subst(name, repl, e.Rhs), P: e.P}
	case *Annot:
		return &Annot{Qual: e.Qual, E: Subst(name, repl, e.E), P: e.P}
	case *Assert:
		return &Assert{E: Subst(name, repl, e.E), Require: e.Require, Forbid: e.Forbid, P: e.P}
	case *Bin:
		return &Bin{Op: e.Op, L: Subst(name, repl, e.L), R: Subst(name, repl, e.R), P: e.P}
	default:
		return e
	}
}
