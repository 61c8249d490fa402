// Package lambda implements the example source language of "A Theory of
// Type Qualifiers" (PLDI 1999): the call-by-value lambda calculus of
// Figure 1 extended with ML-style updateable references (Section 2.4),
// qualifier annotations and qualifier assertions (Section 2.2), plus
// integer arithmetic so that qualifier rules over operators (e.g. nonzero
// divisors) can be expressed.
//
// Concrete syntax:
//
//	e ::= let x = e in e ni
//	    | fn x => e
//	    | if e then e else e fi
//	    | e ; e                      (sequencing, sugar for let _ = e)
//	    | e := e                     (assignment)
//	    | e == e | e < e | e + e | e - e | e * e | e / e
//	    | e e                        (application)
//	    | ref e | !e                 (allocation, dereference)
//	    | @q e                       (qualifier annotation, paper's "l e")
//	    | e |[q, ^q, ...]            (qualifier assertion, paper's "e|l")
//	    | x | n | () | (e)
//
// In an assertion bracket, "^q" demands that qualifier q be absent (legal
// for positive qualifiers: the bound is ¬q) and "q" demands that q be
// present (legal for negative qualifiers: the bound is Require(q)); both
// are upper bounds on the expression's top-level qualifier, as in the
// paper.
package lambda

import "fmt"

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	Pos() Pos
	isExpr()
}

// Var is a variable reference.
type Var struct {
	Name string
	P    Pos
}

// IntLit is an integer literal n ∈ Z.
type IntLit struct {
	Val int64
	P   Pos
}

// UnitLit is the unit value ().
type UnitLit struct {
	P Pos
}

// Lam is a lambda abstraction fn x => e.
type Lam struct {
	Param string
	Body  Expr
	P     Pos
}

// App is application e1 e2.
type App struct {
	Fn  Expr
	Arg Expr
	P   Pos
}

// If is the conditional; following the C convention, the guard is an
// integer and zero means false.
type If struct {
	Cond Expr
	Then Expr
	Else Expr
	P    Pos
}

// Let is let x = e1 in e2 ni.
type Let struct {
	Name string
	Init Expr
	Body Expr
	P    Pos
}

// LetRec is letrec f = v in e ni: f is visible inside v, enabling
// recursive definitions. The initializer must be a syntactic value
// (checked by the type checker), so generalization under the value
// restriction still applies after the recursive type is inferred.
type LetRec struct {
	Name string
	Init Expr
	Body Expr
	P    Pos
}

// Ref allocates an updateable reference.
type Ref struct {
	E Expr
	P Pos
}

// Deref reads a reference (!e).
type Deref struct {
	E Expr
	P Pos
}

// Assign stores into a reference (e1 := e2).
type Assign struct {
	Lhs Expr
	Rhs Expr
	P   Pos
}

// Annot is a qualifier annotation @q e, the paper's "l e": the
// expression's top-level qualifier is raised to include q. Stacked
// annotations @q1 @q2 e nest.
type Annot struct {
	Qual string
	E    Expr
	P    Pos
}

// Assert is a qualifier assertion e |[...], the paper's "e|l": an upper
// bound on the expression's top-level qualifier. Forbid lists positive
// qualifiers that must be absent ("^q"); Require lists negative
// qualifiers that must be present ("q").
type Assert struct {
	E       Expr
	Require []string
	Forbid  []string
	P       Pos
}

// BinOp enumerates the arithmetic and comparison operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpLt
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpEq:
		return "=="
	case OpLt:
		return "<"
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// Bin is a binary arithmetic or comparison expression.
type Bin struct {
	Op   BinOp
	L, R Expr
	P    Pos
}

// Pos implementations.

// Pos returns the source position of the node.
func (e *Var) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *IntLit) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *UnitLit) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Lam) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *App) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *If) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Let) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *LetRec) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Ref) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Deref) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Assign) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Annot) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Assert) Pos() Pos { return e.P }

// Pos returns the source position of the node.
func (e *Bin) Pos() Pos { return e.P }

func (*Var) isExpr()     {}
func (*IntLit) isExpr()  {}
func (*UnitLit) isExpr() {}
func (*Lam) isExpr()     {}
func (*App) isExpr()     {}
func (*If) isExpr()      {}
func (*Let) isExpr()     {}
func (*LetRec) isExpr()  {}
func (*Ref) isExpr()     {}
func (*Deref) isExpr()   {}
func (*Assign) isExpr()  {}
func (*Annot) isExpr()   {}
func (*Assert) isExpr()  {}
func (*Bin) isExpr()     {}

// IsValue reports whether e is a syntactic value (Figure 1): a variable,
// integer literal, unit, lambda, or an annotated value. Only values may be
// generalized under the value restriction (Section 3.2).
func IsValue(e Expr) bool {
	switch e := e.(type) {
	case *Var, *IntLit, *UnitLit, *Lam:
		return true
	case *Annot:
		return IsValue(e.E)
	default:
		return false
	}
}

// Strip returns e with all qualifier annotations and assertions removed —
// the paper's strip(e) translation back to the unannotated language.
func Strip(e Expr) Expr {
	switch e := e.(type) {
	case *Var, *IntLit, *UnitLit:
		return e
	case *Lam:
		return &Lam{Param: e.Param, Body: Strip(e.Body), P: e.P}
	case *App:
		return &App{Fn: Strip(e.Fn), Arg: Strip(e.Arg), P: e.P}
	case *If:
		return &If{Cond: Strip(e.Cond), Then: Strip(e.Then), Else: Strip(e.Else), P: e.P}
	case *Let:
		return &Let{Name: e.Name, Init: Strip(e.Init), Body: Strip(e.Body), P: e.P}
	case *LetRec:
		return &LetRec{Name: e.Name, Init: Strip(e.Init), Body: Strip(e.Body), P: e.P}
	case *Ref:
		return &Ref{E: Strip(e.E), P: e.P}
	case *Deref:
		return &Deref{E: Strip(e.E), P: e.P}
	case *Assign:
		return &Assign{Lhs: Strip(e.Lhs), Rhs: Strip(e.Rhs), P: e.P}
	case *Annot:
		return Strip(e.E)
	case *Assert:
		return Strip(e.E)
	case *Bin:
		return &Bin{Op: e.Op, L: Strip(e.L), R: Strip(e.R), P: e.P}
	default:
		panic(fmt.Sprintf("lambda: unknown expression %T", e))
	}
}
