package qtype

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// The example language's constructors (Figure 3 plus Section 2.4).
var (
	conInt  = &Constructor{Name: "int"}
	conUnit = &Constructor{Name: "unit"}
	conFun  = &Constructor{Name: "→", Variance: []Variance{Contravariant, Covariant}, Infix: true}
	conRef  = &Constructor{Name: "ref", Variance: []Variance{Invariant}}
)

func setup(t testing.TB) (*qual.Set, *constraint.System, *Builder) {
	t.Helper()
	set := qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "nonzero", Sign: qual.Negative},
	)
	sys := constraint.NewSystem(set)
	return set, sys, NewBuilder(sys)
}

func TestVarianceString(t *testing.T) {
	if Covariant.String() != "covariant" || Contravariant.String() != "contravariant" || Invariant.String() != "invariant" {
		t.Error("Variance.String mismatch")
	}
	if !strings.Contains(Variance(9).String(), "9") {
		t.Error("unknown variance string")
	}
}

func TestApplyArityPanics(t *testing.T) {
	_, _, b := setup(t)
	defer func() {
		if recover() == nil {
			t.Error("Apply with wrong arity did not panic")
		}
	}()
	b.Apply(conFun, b.Apply(conInt))
}

func TestSubtypeInt(t *testing.T) {
	set, sys, b := setup(t)
	a := b.Apply(conInt)
	c := b.Apply(conInt)
	if err := b.Subtype(a, c, constraint.Reason{Msg: "test"}); err != nil {
		t.Fatal(err)
	}
	sys.Add(constraint.C(set.MustElem("const")), a.Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(c.Q.Var(), "const") {
		t.Error("SubInt: qualifier did not flow covariantly")
	}
}

func TestSubtypeFunVariance(t *testing.T) {
	set, sys, b := setup(t)
	// f : (int → int) ≤ g : (int → int); domain contravariant, range covariant.
	fDom, fRan := b.Apply(conInt), b.Apply(conInt)
	gDom, gRan := b.Apply(conInt), b.Apply(conInt)
	f := b.Apply(conFun, fDom, fRan)
	g := b.Apply(conFun, gDom, gRan)
	if err := b.Subtype(f, g, constraint.Reason{Msg: "fun"}); err != nil {
		t.Fatal(err)
	}
	cst := set.MustElem("const")
	sys.Add(constraint.C(cst), gDom.Q, constraint.Reason{})
	sys.Add(constraint.C(cst), fRan.Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(fDom.Q.Var(), "const") {
		t.Error("domain not contravariant: g's domain qualifier should flow to f's")
	}
	if !sys.Forced(gRan.Q.Var(), "const") {
		t.Error("range not covariant: f's range qualifier should flow to g's")
	}
	if sys.Forced(gDom.Q.Var(), "nonzero") {
		t.Error("unexpected qualifier")
	}
}

// TestSubtypeRefInvariant reproduces the paper's Section 2.4 argument: the
// contents of a ref must be equal on both sides, so qualifiers flow both
// ways.
func TestSubtypeRefInvariant(t *testing.T) {
	set, sys, b := setup(t)
	aInner, cInner := b.Apply(conInt), b.Apply(conInt)
	a := b.Apply(conRef, aInner)
	c := b.Apply(conRef, cInner)
	if err := b.Subtype(a, c, constraint.Reason{Msg: "ref"}); err != nil {
		t.Fatal(err)
	}
	sys.Add(constraint.C(set.MustElem("const")), aInner.Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(cInner.Q.Var(), "const") {
		t.Error("ref contents must be equal: forward flow missing")
	}
	// And backward.
	sys.Add(constraint.C(set.MustNot("const")&set.Top()), cInner.Q, constraint.Reason{})
	_ = sys.Solve()
	sys2 := constraint.NewSystem(set)
	b2 := NewBuilder(sys2)
	x, y := b2.Apply(conInt), b2.Apply(conInt)
	rx, ry := b2.Apply(conRef, x), b2.Apply(conRef, y)
	if err := b2.Subtype(rx, ry, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	sys2.Add(constraint.C(set.MustElem("const")), y.Q, constraint.Reason{})
	if errs := sys2.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys2.Forced(x.Q.Var(), "const") {
		t.Error("ref contents must be equal: backward flow missing")
	}
}

func TestConstructorMismatch(t *testing.T) {
	_, _, b := setup(t)
	a := b.Apply(conInt)
	c := b.Apply(conUnit)
	err := b.Subtype(a, c, constraint.Reason{Pos: constraint.Pos{File: "p", Line: 1, Col: 1}, Msg: "mismatch"})
	if err == nil {
		t.Fatal("int ≤ unit accepted")
	}
	te, ok := err.(*TypeError)
	if !ok {
		t.Fatalf("error type %T, want *TypeError", err)
	}
	if te.Pos != "p:1:1" || te.Got != "int" || te.Want != "unit" {
		t.Errorf("TypeError fields: %+v", te)
	}
	if !strings.Contains(te.Error(), "p:1:1") {
		t.Errorf("error message lacks position: %s", te.Error())
	}
}

func TestVarUnification(t *testing.T) {
	_, sys, b := setup(t)
	v := b.Qual(b.FreshTVar())
	i := b.Apply(conInt)
	if err := b.Subtype(v, i, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	if v.T.IsVar() {
		t.Error("variable not bound to int skeleton")
	}
	if v.T.Resolve().Con != conInt {
		t.Errorf("variable bound to %v, want int", v.T.Resolve().Con)
	}
	_ = sys
}

func TestVarVarIdentification(t *testing.T) {
	_, _, b := setup(t)
	v1 := b.Qual(b.FreshTVar())
	v2 := b.Qual(b.FreshTVar())
	if err := b.Subtype(v1, v2, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	i := b.Apply(conInt)
	if err := b.Subtype(v2, i, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	if v1.T.Resolve().Con != conInt {
		t.Error("identified variables did not share binding")
	}
}

func TestVarAgainstFunSpreads(t *testing.T) {
	set, sys, b := setup(t)
	// κ α ≤ κ' (dom → ran): α must be bound to a fresh spread of the
	// function skeleton, with fresh qualifiers related by variance.
	v := b.Qual(b.FreshTVar())
	dom, ran := b.Apply(conInt), b.Apply(conInt)
	f := b.Apply(conFun, dom, ran)
	if err := b.Subtype(v, f, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	vt := v.T.Resolve()
	if vt.Con != conFun {
		t.Fatalf("variable bound to %v, want fun", vt.Con)
	}
	// The clone's qualifiers must be fresh variables, not shared with f.
	if vt.Args[0].Q == dom.Q || vt.Args[1].Q == ran.Q {
		t.Error("spread clone shares qualifier terms with the right side")
	}
	// But related: const on the clone's range must flow to f's range.
	sys.Add(constraint.C(set.MustElem("const")), vt.Args[1].Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(ran.Q.Var(), "const") {
		t.Error("spread clone not related covariantly to right side")
	}
}

func TestOccursCheck(t *testing.T) {
	_, _, b := setup(t)
	v := b.Qual(b.FreshTVar())
	f := b.Apply(conFun, v, b.Apply(conInt))
	err := b.Subtype(v, f, constraint.Reason{Pos: constraint.Pos{File: "x", Line: 1, Col: 1}})
	if err == nil {
		t.Fatal("infinite type accepted")
	}
	if !strings.Contains(err.Error(), "occurs") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestEqualBothWays(t *testing.T) {
	set, sys, b := setup(t)
	a, c := b.Apply(conInt), b.Apply(conInt)
	if err := b.Equal(a, c, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	sys.Add(constraint.C(set.MustElem("const")), c.Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(a.Q.Var(), "const") {
		t.Error("equality did not flow backward")
	}
}

func TestStripSpBottom(t *testing.T) {
	set, _, b := setup(t)
	inner := b.Apply(conInt)
	r := b.Apply(conRef, inner)
	f := b.Apply(conFun, r, b.Qual(b.FreshTVar()))
	s := Strip(f)
	if s.String() != "(ref(int) → α"+itoa(f.T.Args[1].T.VarID())+")" {
		t.Logf("strip rendering: %s", s)
	}
	if s.Con != conFun || s.Args[0].Con != conRef || s.Args[0].Args[0].Con != conInt || s.Args[1].Con != nil {
		t.Errorf("Strip structure wrong: %s", s)
	}

	// Sp must produce the same structure with all-fresh qualifier vars.
	sp := b.Sp(s, map[int]*Type{})
	if !EqualSType(Strip(sp), s) {
		t.Errorf("Strip(Sp(s)) = %s, want %s", Strip(sp), s)
	}
	seen := map[constraint.Var]bool{}
	for _, v := range FreeQVars(sp, nil) {
		if seen[v] {
			t.Error("Sp reused a qualifier variable")
		}
		seen[v] = true
	}

	// Bottom must produce constant ⊥ qualifiers everywhere.
	bot := Bottom(set, s, map[int]*Type{})
	if !EqualSType(Strip(bot), s) {
		t.Errorf("Strip(Bottom(s)) = %s, want %s", Strip(bot), s)
	}
	var check func(q *QType)
	check = func(q *QType) {
		if q.Q.IsVar() {
			t.Error("Bottom produced a qualifier variable")
		} else if q.Q.Const() != set.Bottom() {
			t.Error("Bottom produced a non-⊥ qualifier")
		}
		tt := q.T.Resolve()
		for _, a := range tt.Args {
			check(a)
		}
	}
	check(bot)
}

func TestSpSharedVars(t *testing.T) {
	_, _, b := setup(t)
	// α → α must spread to a type where both occurrences share one type
	// variable.
	s := &SType{Con: conFun, Args: []*SType{{VarID: 7}, {VarID: 7}}}
	sp := b.Sp(s, map[int]*Type{})
	tt := sp.T.Resolve()
	if tt.Args[0].T.Resolve() != tt.Args[1].T.Resolve() {
		t.Error("Sp did not rewrite the repeated variable consistently")
	}
	// And with nil vars map, variables become fresh and unshared.
	sp2 := b.Sp(s, nil)
	t2 := sp2.T.Resolve()
	if t2.Args[0].T.Resolve() == t2.Args[1].T.Resolve() {
		t.Error("Sp with nil map shared variables unexpectedly")
	}
}

func TestEqualSType(t *testing.T) {
	a := &SType{Con: conFun, Args: []*SType{{VarID: 1}, {VarID: 2}}}
	b1 := &SType{Con: conFun, Args: []*SType{{VarID: 10}, {VarID: 20}}}
	if !EqualSType(a, b1) {
		t.Error("alpha-equivalent types reported unequal")
	}
	c := &SType{Con: conFun, Args: []*SType{{VarID: 1}, {VarID: 1}}}
	if EqualSType(a, c) {
		t.Error("α→β equal to α→α")
	}
	if EqualSType(c, a) {
		t.Error("α→α equal to α→β (reverse)")
	}
	d := &SType{Con: conInt}
	if EqualSType(a, d) {
		t.Error("fun equal to int")
	}
	if EqualSType(d, &SType{VarID: 3}) {
		t.Error("int equal to a variable")
	}
}

func TestFormat(t *testing.T) {
	set, sys, b := setup(t)
	inner := &QType{Q: constraint.C(set.MustElem("const")), T: &Type{Con: conInt}}
	r := b.Apply(conRef, inner)
	got := r.Format(set)
	if !strings.Contains(got, "const int") || !strings.Contains(got, "ref(") {
		t.Errorf("Format = %q", got)
	}
	// Solved formatting substitutes lower bounds for variables.
	sys.Add(constraint.C(set.MustElem("const")), r.Q, constraint.Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	solved := r.FormatSolved(set, sys)
	if !strings.HasPrefix(solved, "const ref(") {
		t.Errorf("FormatSolved = %q", solved)
	}
	// Infix function formatting.
	f := b.Apply(conFun, b.Apply(conInt), b.Apply(conUnit))
	if got := f.Format(set); !strings.Contains(got, "→") {
		t.Errorf("fun Format = %q", got)
	}
	v := b.Qual(b.FreshTVar())
	if got := v.Format(set); !strings.Contains(got, "α") {
		t.Errorf("var Format = %q", got)
	}
}

func TestFreeTVars(t *testing.T) {
	_, _, b := setup(t)
	v1, v2 := b.FreshTVar(), b.FreshTVar()
	f := b.Apply(conFun, b.Qual(v1), b.Apply(conRef, b.Qual(v2)))
	vars := FreeTVars(f, nil)
	if len(vars) != 2 {
		t.Fatalf("FreeTVars found %d vars, want 2", len(vars))
	}
	if vars[0] != v1.Resolve() || vars[1] != v2.Resolve() {
		t.Error("FreeTVars wrong identities")
	}
	bare := b.Qual(v1)
	if got := FreeTVars(bare, nil); len(got) != 1 {
		t.Errorf("FreeTVars on bare var: %d", len(got))
	}
}

func TestResolvePathCompression(t *testing.T) {
	_, _, b := setup(t)
	v1 := b.FreshTVar()
	v2 := b.FreshTVar()
	v3 := b.FreshTVar()
	v1.link = v2
	v2.link = v3
	r := v1.Resolve()
	if r != v3 {
		t.Fatal("Resolve wrong representative")
	}
	if v1.link != v3 {
		t.Error("path not compressed")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestApplyConst(t *testing.T) {
	set, sys, b := setup(t)
	inner := b.Apply(conInt)
	q := b.ApplyConst(set.MustElem("const"), conRef, inner)
	if q.Q.IsVar() {
		t.Fatal("ApplyConst produced a variable")
	}
	if !set.Has(q.Q.Const(), "const") {
		t.Error("constant qualifier lost")
	}
	_ = sys
	defer func() {
		if recover() == nil {
			t.Error("ApplyConst with wrong arity did not panic")
		}
	}()
	b.ApplyConst(set.Bottom(), conFun, inner)
}

func TestOnNodeCallback(t *testing.T) {
	set, sys, b := setup(t)
	var pairs int
	b.OnNode = func(parent, child constraint.Term) { pairs++ }
	inner := b.Apply(conInt)
	b.Apply(conRef, inner)
	if pairs != 1 {
		t.Errorf("OnNode called %d times for one ref, want 1", pairs)
	}
	// Spread clones notify too: a variable forced to a function skeleton
	// reports its new parent/child structure.
	pairs = 0
	v := b.Qual(b.FreshTVar())
	f := b.Apply(conFun, b.Apply(conInt), b.Apply(conInt))
	if err := b.Subtype(v, f, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	if pairs < 2 { // f's own construction (2) already counted? reset was before both
		t.Errorf("OnNode missed spread structure: %d", pairs)
	}
	_, _ = set, sys
}

func TestEqualWithVariableNotifies(t *testing.T) {
	_, _, b := setup(t)
	var pairs int
	b.OnNode = func(parent, child constraint.Term) { pairs++ }
	v := b.Qual(b.FreshTVar())
	r := b.Apply(conRef, b.Apply(conInt))
	if err := b.Equal(v, r, constraint.Reason{}); err != nil {
		t.Fatal(err)
	}
	if pairs < 2 { // ref construction + notifyAll on bind
		t.Errorf("Equal bind did not notify: %d", pairs)
	}
}
