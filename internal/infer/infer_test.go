package infer

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/lambda"
	"repro/internal/progen"
	"repro/internal/qtype"
	"repro/internal/qual"
)

func constSet(t testing.TB) *qual.Set {
	t.Helper()
	return qual.MustSet(qual.Qualifier{Name: "const", Sign: qual.Positive})
}

func nonzeroSet(t testing.TB) *qual.Set {
	t.Helper()
	return qual.MustSet(qual.Qualifier{Name: "nonzero", Sign: qual.Negative})
}

func fullSet(t testing.TB) *qual.Set {
	t.Helper()
	return qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "dynamic", Sign: qual.Positive},
		qual.Qualifier{Name: "nonzero", Sign: qual.Negative},
	)
}

// check runs source through a fresh checker and returns the result.
func check(t *testing.T, set *qual.Set, rules Rules, src string) *Result {
	t.Helper()
	c := New(set, rules)
	res, err := c.CheckSource("test", src)
	if err != nil {
		t.Fatalf("CheckSource(%q): %v", src, err)
	}
	return res
}

func mustPass(t *testing.T, set *qual.Set, rules Rules, src string) *Result {
	t.Helper()
	res := check(t, set, rules, src)
	if len(res.Conflicts) != 0 {
		t.Fatalf("program %q rejected: %v", src, res.Conflicts[0].Explain(set))
	}
	return res
}

func mustFail(t *testing.T, set *qual.Set, rules Rules, src string) []*constraint.Unsat {
	t.Helper()
	res := check(t, set, rules, src)
	if len(res.Conflicts) == 0 {
		t.Fatalf("program %q accepted, want qualifier conflict", src)
	}
	return res.Conflicts
}

func TestBasicTyping(t *testing.T) {
	set := constSet(t)
	cases := []struct {
		src  string
		want string // structure of the stripped type
	}{
		{"5", "int"},
		{"()", "unit"},
		{"fn x => x", "(α1 → α1)"},
		{"fn x => 5", "(α1 → int)"},
		{"ref 1", "ref(int)"},
		{"!(ref 1)", "int"},
		{"ref 1 := 2", "unit"},
		{"let x = 1 in x ni", "int"},
		{"if 1 then 2 else 3 fi", "int"},
		{"(fn x => x) 5", "int"},
		{"1 + 2 * 3", "int"},
		{"1 == 2", "int"},
		{"let f = fn x => !x in f (ref ()) ni", "unit"},
		{"fn f => fn x => f x", "((α1 → α2) → (α1 → α2))"},
	}
	for _, c := range cases {
		res := mustPass(t, set, Rules{}, c.src)
		got := qtype.Strip(res.Type).String()
		// Compare up to variable numbering by normalizing variable ids.
		if !alphaEq(got, c.want) {
			t.Errorf("type of %q = %s, want %s", c.src, got, c.want)
		}
	}
}

// alphaEq compares type strings ignoring the specific numbers on αN.
func alphaEq(a, b string) bool {
	norm := func(s string) string {
		var out strings.Builder
		names := map[string]string{}
		i := 0
		for i < len(s) {
			if strings.HasPrefix(s[i:], "α") {
				j := i + len("α")
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
				id := s[i:j]
				if _, ok := names[id]; !ok {
					names[id] = "α" + string(rune('a'+len(names)))
				}
				out.WriteString(names[id])
				i = j
				continue
			}
			out.WriteByte(s[i])
			i++
		}
		return out.String()
	}
	return norm(a) == norm(b)
}

func TestTypeErrors(t *testing.T) {
	set := constSet(t)
	cases := []string{
		"5 6",                    // applying an int
		"!5",                     // deref of an int
		"5 := 1",                 // assign to an int
		"if () then 1 else 2 fi", // unit guard
		"1 + ()",                 // unit operand
		"if 1 then 2 else () fi", // branch mismatch
		"(fn x => x x) 1",        // occurs check
		"y",                      // unbound variable
	}
	for _, src := range cases {
		c := New(set, Rules{})
		if _, err := c.CheckSource("test", src); err == nil {
			t.Errorf("CheckSource(%q) succeeded, want type error", src)
		}
	}
}

func TestConstAssignRule(t *testing.T) {
	set := constSet(t)
	rules := ConstRules(set)
	// Writing through a const ref is rejected.
	conflicts := mustFail(t, set, rules, "let x = @const ref 1 in x := 2 ni")
	if !strings.Contains(conflicts[0].Con.Why.Msg, "assignment target") &&
		!strings.Contains(conflicts[0].Explain(set), "const") {
		t.Errorf("conflict lacks context: %v", conflicts[0])
	}
	// Writing through a plain ref is fine.
	mustPass(t, set, rules, "let x = ref 1 in x := 2 ni")
	// Reading a const ref is fine.
	mustPass(t, set, rules, "let x = @const ref 1 in !x ni")
	// Subsumption: a non-const ref can be used where const is expected.
	mustPass(t, set, rules, `
		let f = fn r => !(r |[^const]) in
		f (ref 1)
		ni`)
}

func TestConstFlowThroughAlias(t *testing.T) {
	set := constSet(t)
	rules := ConstRules(set)
	// The alias receives the same ref cell; constness conflicts surface
	// even through the alias.
	mustFail(t, set, rules, `
		let x = @const ref 1 in
		let y = x in
		y := 2
		ni ni`)
}

// TestSection24Unsoundness reproduces the paper's Section 2.4 example: with
// the sound invariant-contents rule for refs, the program that launders a
// zero through an alias and then asserts nonzero is rejected.
func TestSection24Unsoundness(t *testing.T) {
	set := nonzeroSet(t)
	rules := NonzeroRules(set)
	mustFail(t, set, rules, `
		let x = ref (@nonzero 37) in
		let y = x in
		y := 0;
		(!x) |[nonzero]
		ni ni`)
	// Control: without the zero store the program is fine.
	mustPass(t, set, rules, `
		let x = ref (@nonzero 37) in
		let y = x in
		(!x) |[nonzero]
		ni ni`)
}

func TestNonzeroDivision(t *testing.T) {
	set := nonzeroSet(t)
	rules := NonzeroRules(set)
	// Dividing by a literal nonzero is fine.
	mustPass(t, set, rules, "10 / 2")
	// Dividing by zero is rejected.
	mustFail(t, set, rules, "10 / 0")
	// Dividing by an arithmetic result is rejected (conservative).
	mustFail(t, set, rules, "10 / (1 + 1)")
	// Dividing by an annotated value is fine.
	mustPass(t, set, rules, "10 / (@nonzero (1 + 1))")
	// The zero literal flowing through a let is caught.
	mustFail(t, set, rules, "let z = 0 in 10 / z ni")
}

func TestAssertValidation(t *testing.T) {
	set := fullSet(t)
	c := New(set, Rules{})
	// Asserting absence of a negative qualifier is rejected as misuse.
	if _, err := c.CheckSource("t", "5 |[^nonzero]"); err == nil {
		t.Error("^nonzero accepted")
	}
	// Asserting presence of a positive qualifier is rejected as misuse.
	c2 := New(set, Rules{})
	if _, err := c2.CheckSource("t", "5 |[const]"); err == nil {
		t.Error("|[const] accepted")
	}
	// Unknown names.
	c3 := New(set, Rules{})
	if _, err := c3.CheckSource("t", "5 |[^volatile]"); err == nil {
		t.Error("unknown qualifier in assertion accepted")
	}
	c4 := New(set, Rules{})
	if _, err := c4.CheckSource("t", "@volatile 5"); err == nil {
		t.Error("unknown qualifier in annotation accepted")
	}
	var qe *QualError
	_, err := New(set, Rules{}).CheckSource("t", "@volatile 5")
	if e, ok := err.(*QualError); ok {
		qe = e
	} else {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(qe.Error(), "volatile") || !strings.Contains(qe.Error(), "t:1:") {
		t.Errorf("QualError = %q", qe.Error())
	}
}

func TestAnnotationSemantics(t *testing.T) {
	set := fullSet(t)
	// @const raises only the const component.
	res := mustPass(t, set, Rules{}, "@const 5")
	q := res.Type.Q
	if !q.IsVar() {
		t.Fatal("annotation result should be a variable")
	}
	lo := res.Sys.Lower(q.Var())
	if !set.Has(lo, "const") {
		t.Error("const not forced by annotation")
	}
	if set.Has(lo, "dynamic") {
		t.Error("annotation leaked into dynamic")
	}
	// Stacked annotations accumulate.
	res = mustPass(t, set, Rules{}, "@const @dynamic 5")
	lo = res.Sys.Lower(res.Type.Q.Var())
	if !set.Has(lo, "const") || !set.Has(lo, "dynamic") {
		t.Errorf("stacked annotations = %s", set.Describe(lo))
	}
	// A negative annotation is an upper bound (assumed presence).
	res = mustPass(t, set, Rules{}, "@nonzero (1 + 1)")
	up := res.Sys.Upper(res.Type.Q.Var())
	if !set.Has(up, "nonzero") {
		t.Error("negative annotation did not force presence in the upper bound")
	}
}

func TestAssertionPassAndFail(t *testing.T) {
	set := fullSet(t)
	rules := Merge(ConstRules(set), NonzeroRules(set))
	mustPass(t, set, rules, "(ref 1) |[^const]")
	mustFail(t, set, rules, "(@const ref 1) |[^const]")
	mustPass(t, set, rules, "5 |[nonzero]")
	mustFail(t, set, rules, "0 |[nonzero]")
	// Assertion does not change the type: the value still flows.
	mustPass(t, set, rules, "1 + (5 |[nonzero])")
}

// TestPolyId reproduces the paper's Section 3.2 example: one identity
// function used at const and non-const types. Monomorphic inference
// rejects the program; polymorphic inference accepts it.
func TestPolyId(t *testing.T) {
	set := constSet(t)
	src := `
		let id = fn x => x in
		let y = id (ref 1) in
		let u = y := 2 in
		let z = id (@const ref 1) in
		()
		ni ni ni ni`
	// Polymorphic: accepted.
	c := New(set, ConstRules(set))
	res, err := c.CheckSource("poly", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 0 {
		t.Errorf("polymorphic inference rejected the id example: %v", res.Conflicts[0].Explain(set))
	}
	// Monomorphic: rejected.
	m := New(set, ConstRules(set))
	m.Monomorphic = true
	res, err = m.CheckSource("mono", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) == 0 {
		t.Error("monomorphic inference accepted the id example")
	}
}

// TestPolyIdSimplified runs the same example with scheme simplification
// enabled; results must not change.
func TestPolyIdSimplified(t *testing.T) {
	set := constSet(t)
	src := `
		let id = fn x => x in
		let y = id (ref 1) in
		let u = y := 2 in
		let z = id (@const ref 1) in
		()
		ni ni ni ni`
	c := New(set, ConstRules(set))
	c.Simplify = true
	res, err := c.CheckSource("poly", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 0 {
		t.Errorf("simplified polymorphic inference rejected the id example: %v", res.Conflicts[0].Explain(set))
	}
}

func TestValueRestriction(t *testing.T) {
	set := constSet(t)
	// A ref is not a value, so its type is monomorphic and the cell is
	// shared: const flowing in one use constrains the other.
	src := `
		let r = ref 1 in
		let u = r := 2 in
		(r) |[^const]
		ni ni`
	mustPass(t, set, ConstRules(set), src)
	// The init "ref 1" must NOT be generalized: both uses must alias.
	src2 := `
		let r = ref (@nonzero 37) in
		let a = r in
		let u = a := 0 in
		(!r) |[nonzero]
		ni ni ni`
	setNZ := nonzeroSet(t)
	mustFail(t, setNZ, NonzeroRules(setNZ), src2)
}

func TestBindingTime(t *testing.T) {
	set := qual.MustSet(qual.Qualifier{Name: "dynamic", Sign: qual.Positive})
	rules := BindingTimeRules(set)
	// A static computation over static data is fine.
	mustPass(t, set, rules, "let f = fn x => x + 1 in f 2 ni")
	// Branching on dynamic data makes the result dynamic: asserting it
	// static fails.
	mustFail(t, set, rules, `
		let d = @dynamic 1 in
		(if d then 1 else 2 fi) |[^dynamic]
		ni`)
	// Applying a dynamic function yields a dynamic result.
	mustFail(t, set, rules, `
		let f = @dynamic (fn x => x) in
		(f 1) |[^dynamic]
		ni`)
	// Well-formedness: nothing dynamic inside a static value. A reference
	// asserted static must not hold dynamic contents.
	mustFail(t, set, rules, `
		let r = ref (@dynamic 1) in
		r |[^dynamic]
		ni`)
}

func TestTaint(t *testing.T) {
	set := qual.MustSet(qual.Qualifier{Name: "tainted", Sign: qual.Positive})
	rules := TaintRules(set)
	// Tainted data reaching an untainted sink is rejected.
	mustFail(t, set, rules, `
		let input = @tainted 42 in
		let sink = fn x => x |[^tainted] in
		sink input
		ni ni`)
	// Taint propagates through arithmetic.
	mustFail(t, set, rules, `
		let input = @tainted 42 in
		(input + 1) |[^tainted]
		ni`)
	// Clean data passes.
	mustPass(t, set, rules, `
		let sink = fn x => x |[^tainted] in
		sink 42
		ni`)
}

// TestObservation1 checks the paper's Observation 1 on concrete programs:
// stripping qualifiers from a typable annotated program leaves a typable
// program with the same standard type, and annotation-free programs never
// produce qualifier conflicts under the pure framework rules.
func TestObservation1(t *testing.T) {
	set := fullSet(t)
	programs := []string{
		"@const 5",
		"let x = @const ref (@nonzero 1) in (!x) |[nonzero] ni",
		"let id = fn x => x in id (@const ref 1) ni",
		"fn f => fn x => (f (x |[^const]))",
		"(@dynamic (fn x => x)) 3",
	}
	for _, src := range programs {
		e := lambda.MustParse(src)
		c1 := New(set, Rules{})
		q1, err := c1.Infer(nil, e)
		if err != nil {
			t.Errorf("annotated %q: %v", src, err)
			continue
		}
		c2 := New(set, Rules{})
		q2, err := c2.Infer(nil, lambda.Strip(e))
		if err != nil {
			t.Errorf("stripped %q: %v", src, err)
			continue
		}
		if !qtype.EqualSType(qtype.Strip(q1), qtype.Strip(q2)) {
			t.Errorf("%q: standard types differ: %s vs %s", src, qtype.Strip(q1), qtype.Strip(q2))
		}
		// The stripped program generates no conflicts under empty rules.
		if errs := c2.Sys.Solve(); errs != nil {
			t.Errorf("stripped %q has conflicts: %v", src, errs[0])
		}
	}
}

func TestInstantiateSharesMonoTypeVars(t *testing.T) {
	set := constSet(t)
	// Qualifier polymorphism does not duplicate type structure: using id
	// at int and then at unit is a standard type error (the paper's
	// polymorphism ranges over qualifiers only).
	src := `
		let id = fn x => x in
		let a = id 1 in
		id ()
		ni ni`
	c := New(set, Rules{})
	_, err := c.CheckSource("t", src)
	if err == nil {
		t.Error("id used at two standard types; qualifier polymorphism must not allow this")
	}
}

func TestSchemeInstantiationIndependence(t *testing.T) {
	set := constSet(t)
	// Two instantiations must not share internal qualifier variables:
	// const at one call site must not leak to the other.
	src := `
		let id = fn x => x in
		let a = id (@const ref 1) in
		let b = id (ref 2) in
		let u = b := 5 in
		()
		ni ni ni ni`
	mustPass(t, set, ConstRules(set), src)
}

func TestEnvLookup(t *testing.T) {
	var env *Env
	if _, ok := env.Lookup("x"); ok {
		t.Error("lookup in empty env succeeded")
	}
	set := constSet(t)
	c := New(set, Rules{})
	q := c.intType(constraint.C(set.Bottom()))
	env = env.Bind("x", Mono(q))
	env2 := env.Bind("x", Mono(c.B.Apply(ConRef, q)))
	s, ok := env2.Lookup("x")
	if !ok || qtype.Strip(s.Body).String() != "ref(int)" {
		t.Error("shadowing broken")
	}
	s, ok = env.Lookup("x")
	if !ok || qtype.Strip(s.Body).String() != "int" {
		t.Error("outer binding damaged")
	}
}

func TestSequencing(t *testing.T) {
	set := constSet(t)
	res := mustPass(t, set, ConstRules(set), "let r = ref 1 in r := 2; !r ni")
	if qtype.Strip(res.Type).String() != "int" {
		t.Errorf("sequencing type = %s", qtype.Strip(res.Type))
	}
}

func TestFormatSolvedOutput(t *testing.T) {
	set := constSet(t)
	res := mustPass(t, set, ConstRules(set), "@const ref 1")
	got := res.Type.FormatSolved(set, res.Sys)
	if !strings.Contains(got, "const") || !strings.Contains(got, "ref") {
		t.Errorf("FormatSolved = %q", got)
	}
}

func TestLetRecTyping(t *testing.T) {
	set := constSet(t)
	res := mustPass(t, set, Rules{}, `
		letrec fact = fn n => if n then n * fact (n - 1) else 1 fi in
		fact 5
		ni`)
	if got := qtype.Strip(res.Type).String(); got != "int" {
		t.Errorf("fact 5 : %s", got)
	}
	// The initializer must be a value.
	c := New(set, Rules{})
	if _, err := c.CheckSource("t", "letrec f = f 1 in f ni"); err == nil {
		t.Error("letrec with non-value initializer accepted")
	}
	// Ill-typed recursion is a type error.
	c2 := New(set, Rules{})
	if _, err := c2.CheckSource("t", "letrec f = fn n => f in f ni"); err == nil {
		t.Error("infinite type through letrec accepted")
	}
}

// TestLetRecPolymorphism: a recursive flow-through function is qualifier-
// polymorphic across its uses after the letrec, like a self-recursive C
// function's scheme under -poly.
func TestLetRecPolymorphism(t *testing.T) {
	set := constSet(t)
	src := `
		letrec walk = fn r => if !r then walk r else r fi in
		let a = walk (ref 1) in
		let u = a := 2 in
		let b = walk (@const ref 0) in
		()
		ni ni ni ni`
	res := mustPass(t, set, ConstRules(set), src)
	_ = res
	// Monomorphically the const and the write collide.
	m := New(set, ConstRules(set))
	m.Monomorphic = true
	mres, err := m.CheckSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.Conflicts) == 0 {
		t.Error("monomorphic letrec accepted the mixed-use program")
	}
}

func TestLetRecMutualViaRef(t *testing.T) {
	set := constSet(t)
	// Mutual recursion encoded through a ref cell (the language has
	// single letrec only); self-application would need polymorphic
	// recursion over types, which qualifier polymorphism rightly does not
	// provide.
	mustPass(t, set, Rules{}, `
		let oddcell = ref (fn n => n) in
		letrec even = fn n => if n then (!oddcell) (n - 1) else 1 fi in
		let odd = fn n => if n then even (n - 1) else 0 fi in
		oddcell := odd;
		even 10
		ni ni ni`)
	// And the simply-typed system rejects self-application through letrec.
	c := New(set, Rules{})
	if _, err := c.CheckSource("t", "letrec f = fn s => s s in f f ni"); err == nil {
		t.Error("self-application accepted")
	}
}

// TestPropertyMonoAcceptImpliesPolyAccept: over a generated corpus, every
// program the monomorphic system accepts is also accepted polymorphically
// (polymorphism only relaxes constraints), and scheme simplification
// never changes the verdict.
func TestPropertyMonoAcceptImpliesPolyAccept(t *testing.T) {
	set := constSet(t)
	rules := ConstRules(set)
	g := progen.New(31, progen.DefaultConfig())
	monoAccepted, polyAccepted, simplifyMismatch := 0, 0, 0
	for i := 0; i < 2000; i++ {
		prog := g.Program()

		mono := New(set, rules)
		mono.Monomorphic = true
		mres, err := mono.Check(nil, prog)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}

		poly := New(set, rules)
		pres, err := poly.Check(nil, prog)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}

		simp := New(set, rules)
		simp.Simplify = true
		sres, err := simp.Check(nil, prog)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}

		mok := len(mres.Conflicts) == 0
		pok := len(pres.Conflicts) == 0
		sok := len(sres.Conflicts) == 0
		if mok {
			monoAccepted++
			if !pok {
				t.Fatalf("iteration %d: mono accepts but poly rejects:\n%s",
					i, lambda.Print(prog))
			}
		}
		if pok {
			polyAccepted++
		}
		if pok != sok {
			simplifyMismatch++
			t.Errorf("iteration %d: simplify changed the verdict (poly=%v simplified=%v):\n%s",
				i, pok, sok, lambda.Print(prog))
		}
	}
	if polyAccepted < monoAccepted {
		t.Errorf("poly accepted %d < mono accepted %d", polyAccepted, monoAccepted)
	}
	t.Logf("mono accepted %d, poly accepted %d, simplify mismatches %d",
		monoAccepted, polyAccepted, simplifyMismatch)
}

// TestMergeAllHooks: merging rule sets composes every hook; each
// component's effect is observable.
func TestMergeAllHooks(t *testing.T) {
	set := fullSet(t)
	calls := map[string]int{}
	mk := func(tag string) Rules {
		return Rules{
			LitQual: func(s *qual.Set, n int64) qual.Elem { calls[tag+".lit"]++; return s.Bottom() },
			Assign: func(sys *constraint.System, refQ constraint.Term, pos lambda.Pos) {
				calls[tag+".assign"]++
			},
			Deref: func(sys *constraint.System, refQ, resQ constraint.Term, pos lambda.Pos) {
				calls[tag+".deref"]++
			},
			App: func(sys *constraint.System, funQ, resQ constraint.Term, pos lambda.Pos) {
				calls[tag+".app"]++
			},
			If: func(sys *constraint.System, condQ, resQ constraint.Term, pos lambda.Pos) {
				calls[tag+".if"]++
			},
			Bin: func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos) {
				calls[tag+".bin"]++
			},
			WellFormed: func(sys *constraint.System, parent, child constraint.Term) {
				calls[tag+".wf"]++
			},
		}
	}
	merged := Merge(mk("a"), mk("b"))
	c := New(set, merged)
	_, err := c.CheckSource("t", `
		let r = ref 1 in
		let f = fn x => x + 1 in
		if !r then r := f 2 else () fi
		ni ni`)
	if err != nil {
		t.Fatal(err)
	}
	for _, hook := range []string{"lit", "assign", "deref", "app", "if", "bin", "wf"} {
		for _, tag := range []string{"a", "b"} {
			if calls[tag+"."+hook] == 0 {
				t.Errorf("hook %s.%s never called", tag, hook)
			}
		}
	}
	if calls["a.assign"] != calls["b.assign"] {
		t.Error("merged hooks called unevenly")
	}
}

// TestDerefHook: the Deref rule hook receives the ref and result terms.
func TestDerefHook(t *testing.T) {
	set := constSet(t)
	var got []constraint.Term
	rules := Rules{
		Deref: func(sys *constraint.System, refQ, resQ constraint.Term, pos lambda.Pos) {
			got = append(got, refQ, resQ)
			// Custom rule: reading a const ref marks the result const.
			sys.AddMasked(refQ, resQ, set.MustMask("const"),
				constraint.Reason{Pos: pos.String(), Msg: "const contents stay const"})
		},
	}
	res := mustPass(t, set, rules, "!(@const ref 1)")
	if len(got) != 2 {
		t.Fatalf("deref hook called %d times", len(got)/2)
	}
	if !set.Has(res.Sys.Lower(res.Type.Q.Var()), "const") {
		t.Error("custom deref rule had no effect")
	}
}

// TestObservation1Property checks Observation 1 over the generated
// corpus: for every annotated program that is structurally well-typed,
// the stripped program is too, with the same standard type — qualifiers
// never change the underlying type structure.
func TestObservation1Property(t *testing.T) {
	set := fullSet(t)
	g := progen.New(77, progen.Config{
		MaxDepth:      6,
		Annotate:      []string{"const", "dynamic"},
		AssertAbsent:  []string{"const", "dynamic"},
		NegAnnotate:   []string{"nonzero"},
		AssertPresent: []string{"nonzero"},
	})
	for i := 0; i < 1500; i++ {
		prog := g.Program()
		c1 := New(set, Rules{})
		q1, err := c1.Infer(nil, prog)
		if err != nil {
			t.Fatalf("iteration %d: annotated program ill-typed: %v\n%s", i, err, lambda.Print(prog))
		}
		c2 := New(set, Rules{})
		q2, err := c2.Infer(nil, lambda.Strip(prog))
		if err != nil {
			t.Fatalf("iteration %d: stripped program ill-typed: %v", i, err)
		}
		if !qtype.EqualSType(qtype.Strip(q1), qtype.Strip(q2)) {
			t.Fatalf("iteration %d: standard types differ: %s vs %s\n%s",
				i, qtype.Strip(q1), qtype.Strip(q2), lambda.Print(prog))
		}
		// And the stripped program generates no conflicts under the pure
		// framework (no rules, no annotations): the ⊥(e) direction.
		if errs := c2.Sys.Solve(); errs != nil {
			t.Fatalf("iteration %d: stripped program has conflicts: %v", i, errs[0])
		}
	}
}
