// Package eval implements the small-step operational semantics of Figure
// 5 of "A Theory of Type Qualifiers" (PLDI 1999): call-by-value reduction
// over a store, where every semantic value carries a qualifier annotation
// (l v) and qualifier assertions perform the dynamic check l2 ⊑ l1.
//
// The evaluator exists to validate the paper's soundness theorem
// (Corollary 1): a program accepted by the qualified type system either
// reduces to a value or diverges — it never gets stuck, and in particular
// its qualifier assertions never fail. The test suite exercises this as a
// property over randomly generated programs.
package eval

import (
	"fmt"

	"repro/internal/lambda"
	"repro/internal/qual"
)

// Term is a runtime term: the source language extended with store
// locations and qualified values.
type Term interface{ isTerm() }

// TVar is a runtime variable occurrence.
type TVar struct{ Name string }

// TInt is an unqualified integer; it steps to a qualified value.
type TInt struct{ Val int64 }

// TUnit is the unqualified unit value.
type TUnit struct{}

// TLam is an unqualified lambda.
type TLam struct {
	Param string
	Body  Term
}

// TLoc is a store location (the paper's a).
type TLoc struct{ Addr int }

// TQVal is a qualified value l v, the only form values take at runtime.
type TQVal struct {
	L qual.Elem
	V Term // TInt, TUnit, TLam or TLoc
}

// TApp is application.
type TApp struct{ Fn, Arg Term }

// TIf is the conditional.
type TIf struct{ Cond, Then, Else Term }

// TLet is let-binding.
type TLet struct {
	Name       string
	Init, Body Term
}

// TRef allocates a reference.
type TRef struct{ E Term }

// TDeref reads a reference.
type TDeref struct{ E Term }

// TAssign writes a reference.
type TAssign struct{ Lhs, Rhs Term }

// TAnnot is a runtime qualifier annotation for the named qualifier; the
// sign determines whether it raises or lowers the value's qualifier.
type TAnnot struct {
	Bit  qual.Elem // the qualifier's component mask
	Sign qual.Sign
	E    Term
}

// TAssert is a runtime qualifier assertion with bound L: the value's
// qualifier must satisfy l ⊑ L or evaluation is stuck.
type TAssert struct {
	Bound qual.Elem
	Desc  string
	E     Term
}

// TBin is arithmetic.
type TBin struct {
	Op   lambda.BinOp
	L, R Term
}

func (*TVar) isTerm()    {}
func (*TInt) isTerm()    {}
func (*TUnit) isTerm()   {}
func (*TLam) isTerm()    {}
func (*TLoc) isTerm()    {}
func (*TQVal) isTerm()   {}
func (*TApp) isTerm()    {}
func (*TIf) isTerm()     {}
func (*TLet) isTerm()    {}
func (*TRef) isTerm()    {}
func (*TDeref) isTerm()  {}
func (*TAssign) isTerm() {}
func (*TAnnot) isTerm()  {}
func (*TAssert) isTerm() {}
func (*TBin) isTerm()    {}

// LitQual chooses the runtime qualifier for integer literals, mirroring
// the static rule so that dynamic and static semantics agree.
type LitQual func(set *qual.Set, n int64) qual.Elem

// CompileError reports a name that cannot be resolved during translation
// to runtime terms.
type CompileError struct {
	Pos lambda.Pos
	Msg string
}

func (e *CompileError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Compile translates a source expression to a runtime term, resolving
// qualifier names against the set. lit may be nil (all literals at ⊥, the
// paper's convention of inserting ⊥ annotations).
func Compile(set *qual.Set, lit LitQual, e lambda.Expr) (Term, error) {
	switch e := e.(type) {
	case *lambda.Var:
		return &TVar{Name: e.Name}, nil
	case *lambda.IntLit:
		q := set.Bottom()
		if lit != nil {
			q = lit(set, e.Val)
		}
		return &TQVal{L: q, V: &TInt{Val: e.Val}}, nil
	case *lambda.UnitLit:
		return &TQVal{L: set.Bottom(), V: &TUnit{}}, nil
	case *lambda.Lam:
		body, err := Compile(set, lit, e.Body)
		if err != nil {
			return nil, err
		}
		return &TQVal{L: set.Bottom(), V: &TLam{Param: e.Param, Body: body}}, nil
	case *lambda.App:
		fn, err := Compile(set, lit, e.Fn)
		if err != nil {
			return nil, err
		}
		arg, err := Compile(set, lit, e.Arg)
		if err != nil {
			return nil, err
		}
		return &TApp{Fn: fn, Arg: arg}, nil
	case *lambda.If:
		c, err := Compile(set, lit, e.Cond)
		if err != nil {
			return nil, err
		}
		th, err := Compile(set, lit, e.Then)
		if err != nil {
			return nil, err
		}
		el, err := Compile(set, lit, e.Else)
		if err != nil {
			return nil, err
		}
		return &TIf{Cond: c, Then: th, Else: el}, nil
	case *lambda.Let:
		init, err := Compile(set, lit, e.Init)
		if err != nil {
			return nil, err
		}
		body, err := Compile(set, lit, e.Body)
		if err != nil {
			return nil, err
		}
		return &TLet{Name: e.Name, Init: init, Body: body}, nil
	case *lambda.LetRec:
		// Landin's knot: letrec f = v in e ni runs as
		//   let $rec$f = ref (fn z => z) in $rec$f := v[f↦!$rec$f]; e[f↦!$rec$f] ni
		// The helper name cannot be lexed as an identifier, so generated
		// programs cannot capture it, and v is a value so the dummy is
		// never invoked.
		r := "$rec$" + e.Name
		use := &lambda.Deref{E: &lambda.Var{Name: r, P: e.P}, P: e.P}
		desugared := &lambda.Let{
			Name: r,
			Init: &lambda.Ref{E: &lambda.Lam{Param: "z", Body: &lambda.Var{Name: "z", P: e.P}, P: e.P}, P: e.P},
			Body: &lambda.Let{
				Name: "_",
				Init: &lambda.Assign{Lhs: &lambda.Var{Name: r, P: e.P}, Rhs: lambda.Subst(e.Name, use, e.Init), P: e.P},
				Body: lambda.Subst(e.Name, use, e.Body),
				P:    e.P,
			},
			P: e.P,
		}
		return Compile(set, lit, desugared)

	case *lambda.Ref:
		inner, err := Compile(set, lit, e.E)
		if err != nil {
			return nil, err
		}
		return &TRef{E: inner}, nil
	case *lambda.Deref:
		inner, err := Compile(set, lit, e.E)
		if err != nil {
			return nil, err
		}
		return &TDeref{E: inner}, nil
	case *lambda.Assign:
		lhs, err := Compile(set, lit, e.Lhs)
		if err != nil {
			return nil, err
		}
		rhs, err := Compile(set, lit, e.Rhs)
		if err != nil {
			return nil, err
		}
		return &TAssign{Lhs: lhs, Rhs: rhs}, nil
	case *lambda.Annot:
		inner, err := Compile(set, lit, e.E)
		if err != nil {
			return nil, err
		}
		idx, ok := set.Lookup(e.Qual)
		if !ok {
			return nil, &CompileError{Pos: e.P, Msg: fmt.Sprintf("unknown qualifier %q", e.Qual)}
		}
		bit, err := set.Mask(e.Qual)
		if err != nil {
			return nil, &CompileError{Pos: e.P, Msg: err.Error()}
		}
		return &TAnnot{Bit: bit, Sign: set.Qualifier(idx).Sign, E: inner}, nil
	case *lambda.Assert:
		inner, err := Compile(set, lit, e.E)
		if err != nil {
			return nil, err
		}
		bound := set.Top()
		desc := ""
		for _, q := range e.Forbid {
			b, err := set.Without(bound, q)
			if err != nil {
				return nil, &CompileError{Pos: e.P, Msg: err.Error()}
			}
			bound = b
			desc += " ^" + q
		}
		for _, q := range e.Require {
			b, err := set.With(bound, q)
			if err != nil {
				return nil, &CompileError{Pos: e.P, Msg: err.Error()}
			}
			bound = b
			desc += " " + q
		}
		return &TAssert{Bound: bound, Desc: desc, E: inner}, nil
	case *lambda.Bin:
		l, err := Compile(set, lit, e.L)
		if err != nil {
			return nil, err
		}
		r, err := Compile(set, lit, e.R)
		if err != nil {
			return nil, err
		}
		return &TBin{Op: e.Op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("eval: unknown expression %T", e)
	}
}

// IsValue reports whether t is a (qualified) value.
func IsValue(t Term) bool {
	_, ok := t.(*TQVal)
	return ok
}

// Store is the mutable heap: locations to qualified values.
type Store struct {
	cells map[int]*TQVal
	next  int
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{cells: make(map[int]*TQVal)} }

// Alloc places v at a fresh location.
func (s *Store) Alloc(v *TQVal) int {
	a := s.next
	s.next++
	s.cells[a] = v
	return a
}

// Get reads a location.
func (s *Store) Get(a int) (*TQVal, bool) {
	v, ok := s.cells[a]
	return v, ok
}

// Set overwrites a location that must already exist.
func (s *Store) Set(a int, v *TQVal) bool {
	if _, ok := s.cells[a]; !ok {
		return false
	}
	s.cells[a] = v
	return true
}

// Len reports the number of allocated cells.
func (s *Store) Len() int { return len(s.cells) }

// StuckError reports that no reduction rule applies: a type-safety
// violation, which soundness says cannot happen for accepted programs.
type StuckError struct {
	Msg  string
	Term Term
}

func (e *StuckError) Error() string { return "stuck: " + e.Msg }

// AssertFailure is the specific stuck state of a failed qualifier
// assertion: the rule (l2 v)|l1 → l2 v requires l2 ⊑ l1.
type AssertFailure struct {
	Have  qual.Elem
	Bound qual.Elem
	Desc  string
}

func (e *AssertFailure) Error() string {
	return fmt.Sprintf("stuck: qualifier assertion%s failed", e.Desc)
}

// DivByZero is an arithmetic fault, distinct from a type-safety stuck
// state. The nonzero qualifier discipline rules it out only insofar as
// @nonzero annotations are honest (the paper's annotations are trusted
// assumptions).
type DivByZero struct{}

func (e *DivByZero) Error() string { return "division by zero" }

// subst replaces free occurrences of name by value v in t. Substituted
// values are closed (whole programs are closed and evaluation is
// call-by-value), so no capture can occur.
func subst(name string, v Term, t Term) Term {
	switch t := t.(type) {
	case *TVar:
		if t.Name == name {
			return v
		}
		return t
	case *TInt, *TUnit, *TLoc:
		return t
	case *TLam:
		if t.Param == name {
			return t
		}
		return &TLam{Param: t.Param, Body: subst(name, v, t.Body)}
	case *TQVal:
		return &TQVal{L: t.L, V: subst(name, v, t.V)}
	case *TApp:
		return &TApp{Fn: subst(name, v, t.Fn), Arg: subst(name, v, t.Arg)}
	case *TIf:
		return &TIf{Cond: subst(name, v, t.Cond), Then: subst(name, v, t.Then), Else: subst(name, v, t.Else)}
	case *TLet:
		init := subst(name, v, t.Init)
		body := t.Body
		if t.Name != name {
			body = subst(name, v, body)
		}
		return &TLet{Name: t.Name, Init: init, Body: body}
	case *TRef:
		return &TRef{E: subst(name, v, t.E)}
	case *TDeref:
		return &TDeref{E: subst(name, v, t.E)}
	case *TAssign:
		return &TAssign{Lhs: subst(name, v, t.Lhs), Rhs: subst(name, v, t.Rhs)}
	case *TAnnot:
		return &TAnnot{Bit: t.Bit, Sign: t.Sign, E: subst(name, v, t.E)}
	case *TAssert:
		return &TAssert{Bound: t.Bound, Desc: t.Desc, E: subst(name, v, t.E)}
	case *TBin:
		return &TBin{Op: t.Op, L: subst(name, v, t.L), R: subst(name, v, t.R)}
	default:
		panic(fmt.Sprintf("eval: unknown term %T", t))
	}
}

// Step performs one reduction step (Figure 5). It returns the reduced
// term, or an error when the configuration is stuck.
func (s *Store) Step(t Term) (Term, error) {
	switch t := t.(type) {
	case *TQVal:
		return nil, &StuckError{Msg: "value cannot step", Term: t}

	case *TVar:
		return nil, &StuckError{Msg: "unbound variable " + t.Name, Term: t}

	case *TInt, *TUnit, *TLam, *TLoc:
		// Unqualified value forms receive the ⊥ annotation, implementing
		// the paper's "programs are rewritten by inserting ⊥ annotations".
		return &TQVal{L: 0, V: t}, nil

	case *TApp:
		if !IsValue(t.Fn) {
			fn, err := s.Step(t.Fn)
			if err != nil {
				return nil, err
			}
			return &TApp{Fn: fn, Arg: t.Arg}, nil
		}
		if !IsValue(t.Arg) {
			arg, err := s.Step(t.Arg)
			if err != nil {
				return nil, err
			}
			return &TApp{Fn: t.Fn, Arg: arg}, nil
		}
		qv := t.Fn.(*TQVal)
		lam, ok := qv.V.(*TLam)
		if !ok {
			return nil, &StuckError{Msg: "application of a non-function", Term: t}
		}
		return subst(lam.Param, t.Arg, lam.Body), nil

	case *TIf:
		if !IsValue(t.Cond) {
			c, err := s.Step(t.Cond)
			if err != nil {
				return nil, err
			}
			return &TIf{Cond: c, Then: t.Then, Else: t.Else}, nil
		}
		qv := t.Cond.(*TQVal)
		n, ok := qv.V.(*TInt)
		if !ok {
			return nil, &StuckError{Msg: "if guard is not an integer", Term: t}
		}
		if n.Val != 0 {
			return t.Then, nil
		}
		return t.Else, nil

	case *TLet:
		if !IsValue(t.Init) {
			init, err := s.Step(t.Init)
			if err != nil {
				return nil, err
			}
			return &TLet{Name: t.Name, Init: init, Body: t.Body}, nil
		}
		return subst(t.Name, t.Init, t.Body), nil

	case *TRef:
		if !IsValue(t.E) {
			e, err := s.Step(t.E)
			if err != nil {
				return nil, err
			}
			return &TRef{E: e}, nil
		}
		a := s.Alloc(t.E.(*TQVal))
		return &TQVal{L: 0, V: &TLoc{Addr: a}}, nil

	case *TDeref:
		if !IsValue(t.E) {
			e, err := s.Step(t.E)
			if err != nil {
				return nil, err
			}
			return &TDeref{E: e}, nil
		}
		qv := t.E.(*TQVal)
		loc, ok := qv.V.(*TLoc)
		if !ok {
			return nil, &StuckError{Msg: "dereference of a non-reference", Term: t}
		}
		v, ok := s.Get(loc.Addr)
		if !ok {
			return nil, &StuckError{Msg: "dangling location", Term: t}
		}
		return v, nil

	case *TAssign:
		if !IsValue(t.Lhs) {
			l, err := s.Step(t.Lhs)
			if err != nil {
				return nil, err
			}
			return &TAssign{Lhs: l, Rhs: t.Rhs}, nil
		}
		if !IsValue(t.Rhs) {
			r, err := s.Step(t.Rhs)
			if err != nil {
				return nil, err
			}
			return &TAssign{Lhs: t.Lhs, Rhs: r}, nil
		}
		qv := t.Lhs.(*TQVal)
		loc, ok := qv.V.(*TLoc)
		if !ok {
			return nil, &StuckError{Msg: "assignment to a non-reference", Term: t}
		}
		if !s.Set(loc.Addr, t.Rhs.(*TQVal)) {
			return nil, &StuckError{Msg: "assignment to a dangling location", Term: t}
		}
		return &TQVal{L: 0, V: &TUnit{}}, nil

	case *TAnnot:
		if !IsValue(t.E) {
			e, err := s.Step(t.E)
			if err != nil {
				return nil, err
			}
			return &TAnnot{Bit: t.Bit, Sign: t.Sign, E: e}, nil
		}
		qv := t.E.(*TQVal)
		// The rule l1 (l2 v) → l v strengthens the qualifier: positive
		// qualifiers are added (join), negative qualifiers are assumed
		// present (their normalized "absent" bit is cleared).
		var l qual.Elem
		if t.Sign == qual.Positive {
			l = qv.L | t.Bit
		} else {
			l = qv.L &^ t.Bit
		}
		return &TQVal{L: l, V: qv.V}, nil

	case *TAssert:
		if !IsValue(t.E) {
			e, err := s.Step(t.E)
			if err != nil {
				return nil, err
			}
			return &TAssert{Bound: t.Bound, Desc: t.Desc, E: e}, nil
		}
		qv := t.E.(*TQVal)
		if !qual.Leq(qv.L, t.Bound) {
			return nil, &AssertFailure{Have: qv.L, Bound: t.Bound, Desc: t.Desc}
		}
		return qv, nil

	case *TBin:
		if !IsValue(t.L) {
			l, err := s.Step(t.L)
			if err != nil {
				return nil, err
			}
			return &TBin{Op: t.Op, L: l, R: t.R}, nil
		}
		if !IsValue(t.R) {
			r, err := s.Step(t.R)
			if err != nil {
				return nil, err
			}
			return &TBin{Op: t.Op, L: t.L, R: r}, nil
		}
		lv, lok := t.L.(*TQVal).V.(*TInt)
		rv, rok := t.R.(*TQVal).V.(*TInt)
		if !lok || !rok {
			return nil, &StuckError{Msg: "arithmetic on non-integers", Term: t}
		}
		var out int64
		switch t.Op {
		case lambda.OpAdd:
			out = lv.Val + rv.Val
		case lambda.OpSub:
			out = lv.Val - rv.Val
		case lambda.OpMul:
			out = lv.Val * rv.Val
		case lambda.OpDiv:
			if rv.Val == 0 {
				return nil, &DivByZero{}
			}
			out = lv.Val / rv.Val
		case lambda.OpEq:
			if lv.Val == rv.Val {
				out = 1
			}
		case lambda.OpLt:
			if lv.Val < rv.Val {
				out = 1
			}
		default:
			return nil, &StuckError{Msg: "unknown operator", Term: t}
		}
		return &TQVal{L: 0, V: &TInt{Val: out}}, nil

	default:
		return nil, &StuckError{Msg: fmt.Sprintf("unknown term %T", t), Term: t}
	}
}

// Fuel bounds the number of reduction steps in Eval.
const DefaultFuel = 100000

// Diverged reports that evaluation did not finish within the fuel bound;
// soundness permits divergence, so tests treat it as success.
type Diverged struct{ Steps int }

func (e *Diverged) Error() string { return fmt.Sprintf("no value after %d steps", e.Steps) }

// Eval reduces t to a value, running at most fuel steps (DefaultFuel if
// fuel <= 0).
func Eval(s *Store, t Term, fuel int) (*TQVal, error) {
	if fuel <= 0 {
		fuel = DefaultFuel
	}
	for i := 0; i < fuel; i++ {
		if v, ok := t.(*TQVal); ok {
			return v, nil
		}
		next, err := s.Step(t)
		if err != nil {
			return nil, err
		}
		t = next
	}
	return nil, &Diverged{Steps: fuel}
}

// Run compiles and evaluates a source expression under the qualifier set.
func Run(set *qual.Set, lit LitQual, e lambda.Expr, fuel int) (*TQVal, error) {
	t, err := Compile(set, lit, e)
	if err != nil {
		return nil, err
	}
	return Eval(NewStore(), t, fuel)
}

// Format renders a runtime value for display.
func Format(set *qual.Set, v *TQVal) string {
	prefix := set.String(v.L)
	if prefix != "" {
		prefix += " "
	}
	switch inner := v.V.(type) {
	case *TInt:
		return fmt.Sprintf("%s%d", prefix, inner.Val)
	case *TUnit:
		return prefix + "()"
	case *TLam:
		return prefix + "<fn " + inner.Param + ">"
	case *TLoc:
		return fmt.Sprintf("%sloc(%d)", prefix, inner.Addr)
	default:
		return prefix + "<?>"
	}
}
