package cfront

// WalkExprs calls f on every expression in s in source preorder: a node
// before its operands, operands left to right, and statements in the
// order they are written. Of a declaration statement it visits only the
// variables' initializers. When f returns false, WalkExprs skips that
// expression's operands.
func WalkExprs(s Stmt, f func(Expr) bool) {
	switch s := s.(type) {
	case *Block:
		for _, it := range s.Items {
			WalkExprs(it, f)
		}
	case *DeclStmt:
		for _, d := range s.Decls {
			if v, ok := d.(*VarDecl); ok {
				walkExpr(v.Init, f)
			}
		}
	case *ExprStmt:
		walkExpr(s.X, f)
	case *IfStmt:
		walkExpr(s.Cond, f)
		WalkExprs(s.Then, f)
		WalkExprs(s.Else, f)
	case *WhileStmt:
		walkExpr(s.Cond, f)
		WalkExprs(s.Body, f)
	case *DoWhileStmt:
		WalkExprs(s.Body, f)
		walkExpr(s.Cond, f)
	case *ForStmt:
		WalkExprs(s.Init, f)
		walkExpr(s.Cond, f)
		walkExpr(s.Post, f)
		WalkExprs(s.Body, f)
	case *ReturnStmt:
		walkExpr(s.Value, f)
	case *LabelStmt:
		WalkExprs(s.Stmt, f)
	case *SwitchStmt:
		walkExpr(s.Tag, f)
		WalkExprs(s.Body, f)
	case *CaseStmt:
		walkExpr(s.Value, f)
		WalkExprs(s.Stmt, f)
	}
}

func walkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *Unary:
		walkExpr(e.X, f)
	case *Postfix:
		walkExpr(e.X, f)
	case *Binary:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	case *AssignExpr:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	case *Cond:
		walkExpr(e.C, f)
		walkExpr(e.T, f)
		walkExpr(e.F, f)
	case *Call:
		walkExpr(e.Fn, f)
		for _, a := range e.Args {
			walkExpr(a, f)
		}
	case *Index:
		walkExpr(e.X, f)
		walkExpr(e.I, f)
	case *Member:
		walkExpr(e.X, f)
	case *Cast:
		walkExpr(e.X, f)
	case *SizeofExpr:
		walkExpr(e.X, f)
	case *Comma:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	case *InitList:
		for _, it := range e.Items {
			walkExpr(it, f)
		}
	}
}
