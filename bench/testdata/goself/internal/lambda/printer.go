package lambda

import (
	"fmt"
	"strings"
)

// Precedence levels, lowest binding first; printing parenthesizes any node
// whose level is below the context's requirement.
const (
	precExpr = iota // fn, sequencing
	precAssign
	precCmp
	precAdd
	precMul
	precApp
	precPrefix
	precPostfix
	precAtom
)

// Print renders e as concrete syntax that reparses to an equal tree
// (modulo source positions).
func Print(e Expr) string {
	var b strings.Builder
	printExpr(&b, e, precExpr)
	return b.String()
}

func nodePrec(e Expr) int {
	switch e := e.(type) {
	case *Lam:
		return precExpr
	case *Assign:
		return precAssign
	case *Bin:
		switch e.Op {
		case OpEq, OpLt:
			return precCmp
		case OpAdd, OpSub:
			return precAdd
		default:
			return precMul
		}
	case *App:
		return precApp
	case *Ref, *Deref, *Annot:
		return precPrefix
	case *Assert:
		return precPostfix
	default: // Var, IntLit, UnitLit, Let, If are self-delimiting.
		return precAtom
	}
}

func printExpr(b *strings.Builder, e Expr, min int) {
	if nodePrec(e) < min {
		b.WriteString("(")
		printExpr(b, e, precExpr)
		b.WriteString(")")
		return
	}
	switch e := e.(type) {
	case *Var:
		b.WriteString(e.Name)
	case *IntLit:
		fmt.Fprintf(b, "%d", e.Val)
	case *UnitLit:
		b.WriteString("()")
	case *Lam:
		b.WriteString("fn " + e.Param + " => ")
		printExpr(b, e.Body, precExpr)
	case *App:
		printExpr(b, e.Fn, precApp)
		b.WriteString(" ")
		printExpr(b, e.Arg, precPrefix)
	case *If:
		b.WriteString("if ")
		printExpr(b, e.Cond, precExpr)
		b.WriteString(" then ")
		printExpr(b, e.Then, precExpr)
		b.WriteString(" else ")
		printExpr(b, e.Else, precExpr)
		b.WriteString(" fi")
	case *Let:
		b.WriteString("let " + e.Name + " = ")
		printExpr(b, e.Init, precExpr)
		b.WriteString(" in ")
		printExpr(b, e.Body, precExpr)
		b.WriteString(" ni")
	case *LetRec:
		b.WriteString("letrec " + e.Name + " = ")
		printExpr(b, e.Init, precExpr)
		b.WriteString(" in ")
		printExpr(b, e.Body, precExpr)
		b.WriteString(" ni")
	case *Ref:
		b.WriteString("ref ")
		printExpr(b, e.E, precPrefix)
	case *Deref:
		b.WriteString("!")
		printExpr(b, e.E, precPrefix)
	case *Assign:
		printExpr(b, e.Lhs, precCmp)
		b.WriteString(" := ")
		printExpr(b, e.Rhs, precAssign)
	case *Annot:
		b.WriteString("@" + e.Qual + " ")
		printExpr(b, e.E, precPrefix)
	case *Assert:
		printExpr(b, e.E, precAtom)
		b.WriteString(" |[")
		first := true
		for _, q := range e.Require {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(q)
		}
		for _, q := range e.Forbid {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString("^" + q)
		}
		b.WriteString("]")
	case *Bin:
		lp, rp := nodePrec(e), nodePrec(e)+1
		printExpr(b, e.L, lp)
		b.WriteString(" " + e.Op.String() + " ")
		printExpr(b, e.R, rp)
	default:
		panic(fmt.Sprintf("lambda: unknown expression %T", e))
	}
}

// Equal reports structural equality of two expressions, ignoring source
// positions. It is used by round-trip tests and the evaluator.
func Equal(a, b Expr) bool {
	switch a := a.(type) {
	case *Var:
		b, ok := b.(*Var)
		return ok && a.Name == b.Name
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Val == b.Val
	case *UnitLit:
		_, ok := b.(*UnitLit)
		return ok
	case *Lam:
		b, ok := b.(*Lam)
		return ok && a.Param == b.Param && Equal(a.Body, b.Body)
	case *App:
		b, ok := b.(*App)
		return ok && Equal(a.Fn, b.Fn) && Equal(a.Arg, b.Arg)
	case *If:
		b, ok := b.(*If)
		return ok && Equal(a.Cond, b.Cond) && Equal(a.Then, b.Then) && Equal(a.Else, b.Else)
	case *Let:
		b, ok := b.(*Let)
		return ok && a.Name == b.Name && Equal(a.Init, b.Init) && Equal(a.Body, b.Body)
	case *LetRec:
		b, ok := b.(*LetRec)
		return ok && a.Name == b.Name && Equal(a.Init, b.Init) && Equal(a.Body, b.Body)
	case *Ref:
		b, ok := b.(*Ref)
		return ok && Equal(a.E, b.E)
	case *Deref:
		b, ok := b.(*Deref)
		return ok && Equal(a.E, b.E)
	case *Assign:
		b, ok := b.(*Assign)
		return ok && Equal(a.Lhs, b.Lhs) && Equal(a.Rhs, b.Rhs)
	case *Annot:
		b, ok := b.(*Annot)
		return ok && a.Qual == b.Qual && Equal(a.E, b.E)
	case *Assert:
		b, ok := b.(*Assert)
		return ok && eqStrings(a.Require, b.Require) && eqStrings(a.Forbid, b.Forbid) && Equal(a.E, b.E)
	case *Bin:
		b, ok := b.(*Bin)
		return ok && a.Op == b.Op && Equal(a.L, b.L) && Equal(a.R, b.R)
	default:
		return false
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
