package constraint

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/qual"
)

func testSet(t testing.TB) *qual.Set {
	t.Helper()
	return qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "dynamic", Sign: qual.Positive},
		qual.Qualifier{Name: "nonzero", Sign: qual.Negative},
	)
}

func TestTermAccessors(t *testing.T) {
	v := V(3)
	if !v.IsVar() || v.Var() != 3 {
		t.Error("variable term accessors broken")
	}
	c := C(qual.Elem(5))
	if c.IsVar() || c.Const() != qual.Elem(5) {
		t.Error("constant term accessors broken")
	}
	func() {
		defer func() { recover() }()
		c.Var()
		t.Error("Var on constant did not panic")
	}()
	func() {
		defer func() { recover() }()
		v.Const()
		t.Error("Const on variable did not panic")
	}()
	if !strings.Contains(v.String(), "κ3") {
		t.Errorf("Term.String = %q", v.String())
	}
	set := testSet(t)
	if got := c.Format(set); !strings.Contains(got, "const") {
		t.Errorf("Term.Format = %q", got)
	}
	if got := v.Format(set); got != "κ3" {
		t.Errorf("Term.Format = %q", got)
	}
}

func TestReasonString(t *testing.T) {
	cases := []struct {
		r    Reason
		want string
	}{
		{Reason{}, "(no provenance)"},
		{Reason{Msg: "m"}, "m"},
		{Reason{Pos: "f:1:2"}, "f:1:2"},
		{Reason{Pos: "f:1:2", Msg: "m"}, "f:1:2: m"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reason%+v.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestSimplePropagation(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b, c := sys.Fresh(), sys.Fresh(), sys.Fresh()
	cst := set.MustElem("const")
	sys.Add(C(cst), V(a), Reason{Msg: "seed"})
	sys.Add(V(a), V(b), Reason{Msg: "a<=b"})
	sys.Add(V(b), V(c), Reason{Msg: "b<=c"})
	if errs := sys.Solve(); errs != nil {
		t.Fatalf("unexpected unsat: %v", errs[0])
	}
	for _, v := range []Var{a, b, c} {
		if !set.Has(sys.Lower(v), "const") {
			t.Errorf("const did not propagate to κ%d", v)
		}
		if !sys.Forced(v, "const") {
			t.Errorf("Forced(κ%d, const) = false", v)
		}
	}
	// Nothing constrains the upper bounds.
	if sys.Upper(a) != set.Top() {
		t.Errorf("Upper(a) = %s, want ⊤", set.Describe(sys.Upper(a)))
	}
}

func TestUpperPropagation(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b := sys.Fresh(), sys.Fresh()
	sys.Add(V(a), V(b), Reason{})
	sys.Add(V(b), C(set.MustNot("const")), Reason{Msg: "assignment"})
	if errs := sys.Solve(); errs != nil {
		t.Fatalf("unexpected unsat: %v", errs[0])
	}
	for _, v := range []Var{a, b} {
		if !sys.Forbidden(v, "const") {
			t.Errorf("κ%d should be forbidden const", v)
		}
		if sys.Free(v, "const") {
			t.Errorf("κ%d should not be free in const", v)
		}
		if sys.Free(v, "dynamic") != true {
			t.Errorf("κ%d should be free in dynamic", v)
		}
	}
}

func TestUnsatConflict(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b := sys.Fresh(), sys.Fresh()
	sys.Add(C(set.MustElem("const")), V(a), Reason{Pos: "f:1:1", Msg: "annotation const"})
	sys.Add(V(a), V(b), Reason{Pos: "f:2:1", Msg: "flow"})
	sys.Add(V(b), C(set.MustNot("const")), Reason{Pos: "f:3:1", Msg: "assignment"})
	errs := sys.Solve()
	if len(errs) != 1 {
		t.Fatalf("got %d unsat constraints, want 1", len(errs))
	}
	u := errs[0]
	if !set.Has(u.Lower, "const") {
		t.Errorf("conflict lower = %s, want const present", set.Describe(u.Lower))
	}
	if set.Has(u.Bound, "const") {
		t.Errorf("conflict bound = %s, want const absent", set.Describe(u.Bound))
	}
	msg := u.Error()
	if !strings.Contains(msg, "f:3:1") {
		t.Errorf("error lacks violating position: %s", msg)
	}
	// The blame path must lead back to the annotation.
	if len(u.Path) == 0 {
		t.Fatal("no blame path")
	}
	if got := u.Path[0].Why.Pos; got != "f:1:1" {
		t.Errorf("blame origin = %q, want f:1:1", got)
	}
	exp := u.Explain(set)
	if !strings.Contains(exp, "flow") && !strings.Contains(exp, "annotation") {
		t.Errorf("Explain lacks provenance: %s", exp)
	}
}

func TestConstConstConstraint(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	// Already satisfied constant constraints are dropped.
	sys.Add(C(set.Bottom()), C(set.Top()), Reason{})
	if sys.NumConstraints() != 0 {
		t.Error("satisfied constant constraint retained")
	}
	sys.Add(C(set.MustElem("const")), C(set.MustElem()), Reason{Msg: "bad"})
	errs := sys.Solve()
	if len(errs) != 1 {
		t.Fatalf("constant conflict not reported: %d errors", len(errs))
	}
}

func TestMaskedConstraints(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b := sys.Fresh(), sys.Fresh()
	dyn := set.MustMask("dynamic")
	// a carries const+dynamic; only dynamic may flow to b.
	sys.Add(C(set.MustElem("const", "dynamic")), V(a), Reason{})
	sys.AddMasked(V(a), V(b), dyn, Reason{Msg: "wf"})
	if errs := sys.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	if !set.Has(sys.Lower(b), "dynamic") {
		t.Error("dynamic did not flow through masked edge")
	}
	if set.Has(sys.Lower(b), "const") {
		t.Error("const leaked through dynamic-only edge")
	}
	// Masked upper bound: bounding only the dynamic component must leave
	// const free on the source side.
	sys2 := NewSystem(set)
	x, y := sys2.Fresh(), sys2.Fresh()
	sys2.Add(V(x), V(y), Reason{})
	sys2.AddMasked(V(y), C(set.MustElem()), dyn, Reason{Msg: "no dynamic"})
	if errs := sys2.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	if sys2.Forbidden(x, "const") {
		t.Error("masked upper bound leaked into const component")
	}
	if !sys2.Forbidden(x, "dynamic") {
		t.Error("masked upper bound did not propagate in dynamic component")
	}
}

func TestZeroMaskDropped(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a := sys.Fresh()
	sys.AddMasked(C(set.Top()), V(a), 0, Reason{})
	if sys.NumConstraints() != 0 {
		t.Error("zero-mask constraint retained")
	}
	sys.Add(V(a), V(a), Reason{})
	if sys.NumConstraints() != 0 {
		t.Error("reflexive constraint retained")
	}
}

func TestCycle(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b, c := sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(V(a), V(b), Reason{})
	sys.Add(V(b), V(c), Reason{})
	sys.Add(V(c), V(a), Reason{})
	sys.Add(C(set.MustElem("const")), V(b), Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	for _, v := range []Var{a, b, c} {
		if !sys.Forced(v, "const") {
			t.Errorf("const did not traverse cycle to κ%d", v)
		}
	}
}

func TestNegativeQualifierFlow(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a, b := sys.Fresh(), sys.Fresh()
	// b starts as any int; the assertion b|nonzero demands nonzero, i.e.
	// upper bound Require(nonzero). A flows into b.
	sys.Add(V(a), V(b), Reason{})
	sys.Add(V(b), C(set.MustRequire("nonzero")), Reason{Msg: "assert nonzero"})
	if errs := sys.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	if set.Has(sys.Upper(a), "nonzero") == false {
		// Upper having nonzero present means it is allowed/required; since
		// absent-is-top for negative qualifiers, the upper bound must have
		// dropped the "absent" bit.
		t.Error("nonzero requirement did not reach a")
	}
	// Now a literal zero (lattice element without nonzero, i.e. top of
	// that component) flows into a: conflict.
	sys.Add(C(set.MustNot("nonzero")&set.MustMask("nonzero")), V(a), Reason{Msg: "zero literal"})
	errs := sys.Solve()
	if len(errs) == 0 {
		t.Fatal("zero flowing into nonzero assertion not rejected")
	}
}

func TestAddConstraintsRename(t *testing.T) {
	set := testSet(t)
	src := NewSystem(set)
	a, b := src.Fresh(), src.Fresh()
	src.Add(C(set.MustElem("const")), V(a), Reason{Msg: "seed"})
	src.Add(V(a), V(b), Reason{Msg: "edge"})
	scheme := src.Constraints()

	dst := NewSystem(set)
	x, y := dst.Fresh(), dst.Fresh()
	dst.AddConstraints(scheme, map[Var]Var{a: x, b: y})
	if errs := dst.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	if !dst.Forced(y, "const") {
		t.Error("renamed constraints did not propagate")
	}
	// Partial rename keeps unrenamed variables (shared/global variables).
	dst2 := NewSystem(set)
	dst2.Fresh()
	dst2.Fresh()
	dst2.AddConstraints(scheme, map[Var]Var{})
	if errs := dst2.Solve(); errs != nil {
		t.Fatalf("unsat: %v", errs[0])
	}
	if !dst2.Forced(Var(1), "const") {
		t.Error("unrenamed variables lost")
	}
}

func TestSolveIdempotentAndIncremental(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a := sys.Fresh()
	sys.Add(C(set.MustElem("const")), V(a), Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	l1 := sys.Lower(a)
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if sys.Lower(a) != l1 {
		t.Error("Solve not idempotent")
	}
	b := sys.Fresh()
	sys.Add(V(a), V(b), Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !sys.Forced(b, "const") {
		t.Error("incremental constraint not solved")
	}
}

func TestMustSolvedPanics(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	a := sys.Fresh()
	defer func() {
		if recover() == nil {
			t.Error("Lower before Solve did not panic")
		}
	}()
	sys.Lower(a)
}

// TestLeastSolutionProperty checks, on random systems, that the computed
// lower bounds form the least solution: (1) they satisfy every constraint
// whenever Solve reports satisfiable, and (2) every qualifier in a lower
// bound is justified (removing it breaks some constraint chain — verified
// here by comparing against a brute-force fixpoint).
func TestLeastSolutionProperty(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		sys := NewSystem(set)
		n := 2 + rng.Intn(8)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		nc := 1 + rng.Intn(15)
		for i := 0; i < nc; i++ {
			switch rng.Intn(3) {
			case 0:
				sys.Add(C(qual.Elem(rng.Intn(8))), V(vars[rng.Intn(n)]), Reason{})
			case 1:
				sys.Add(V(vars[rng.Intn(n)]), V(vars[rng.Intn(n)]), Reason{})
			case 2:
				sys.Add(V(vars[rng.Intn(n)]), C(qual.Elem(rng.Intn(8))), Reason{})
			}
		}
		errs := sys.Solve()

		// Brute-force least fixpoint.
		lower := make([]qual.Elem, n)
		for changed := true; changed; {
			changed = false
			for _, c := range sys.Constraints() {
				if !c.R.IsVar() {
					continue
				}
				var lv qual.Elem
				if c.L.IsVar() {
					lv = lower[c.L.Var()]
				} else {
					lv = c.L.Const()
				}
				add := lv & c.Mask
				if !qual.Leq(add, lower[c.R.Var()]) {
					lower[c.R.Var()] = qual.Join(lower[c.R.Var()], add)
					changed = true
				}
			}
		}
		for i, v := range vars {
			if sys.Lower(v) != lower[i] {
				t.Fatalf("trial %d: Lower(κ%d) = %s, brute force %s",
					trial, v, set.Describe(sys.Lower(v)), set.Describe(lower[i]))
			}
		}
		// Satisfiability agrees with brute force: all upper-bound
		// constraints hold under the least fixpoint.
		sat := true
		for _, c := range sys.Constraints() {
			if c.R.IsVar() {
				continue
			}
			var lv qual.Elem
			if c.L.IsVar() {
				lv = lower[c.L.Var()]
			} else {
				lv = c.L.Const()
			}
			if !qual.LeqMask(lv, c.R.Const(), c.Mask) {
				sat = false
			}
		}
		if sat != (len(errs) == 0) {
			t.Fatalf("trial %d: satisfiable = %v but solver reported %d errors", trial, sat, len(errs))
		}
	}
}

// TestUpperLowerDuality: in a satisfiable system the least solution is
// below the greatest solution pointwise.
func TestUpperLowerDuality(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sys := NewSystem(set)
		n := 2 + rng.Intn(6)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		for i := 0; i < rng.Intn(12); i++ {
			switch rng.Intn(3) {
			case 0:
				sys.Add(C(qual.Elem(rng.Intn(8))), V(vars[rng.Intn(n)]), Reason{})
			case 1:
				sys.Add(V(vars[rng.Intn(n)]), V(vars[rng.Intn(n)]), Reason{})
			case 2:
				sys.Add(V(vars[rng.Intn(n)]), C(qual.Elem(rng.Intn(8))), Reason{})
			}
		}
		if errs := sys.Solve(); errs != nil {
			continue
		}
		for _, v := range vars {
			if !qual.Leq(sys.Lower(v), sys.Upper(v)) {
				t.Fatalf("trial %d: Lower(κ%d)=%s ⋢ Upper=%s", trial, v,
					set.Describe(sys.Lower(v)), set.Describe(sys.Upper(v)))
			}
		}
	}
}

// TestRestrictEquivalence: instantiating the restricted constraints gives
// the same observable bounds on interface variables as instantiating the
// full constraint set.
func TestRestrictEquivalence(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		sys := NewSystem(set)
		n := 4 + rng.Intn(8)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		for i := 0; i < 3+rng.Intn(18); i++ {
			switch rng.Intn(4) {
			case 0:
				sys.Add(C(qual.Elem(rng.Intn(8))), V(vars[rng.Intn(n)]), Reason{})
			case 1, 2:
				sys.Add(V(vars[rng.Intn(n)]), V(vars[rng.Intn(n)]), Reason{})
			case 3:
				sys.Add(V(vars[rng.Intn(n)]), C(qual.Elem(rng.Intn(8))), Reason{})
			}
		}
		if errs := sys.Solve(); errs != nil {
			continue // Restrict requires a satisfiable base system.
		}
		// First two variables are the interface.
		iface := vars[:2]
		restricted := sys.Restrict(iface)

		full := NewSystem(set)
		renameF := map[Var]Var{}
		for _, v := range vars {
			renameF[v] = full.Fresh()
		}
		full.AddConstraints(sys.Constraints(), renameF)
		if errs := full.Solve(); errs != nil {
			t.Fatalf("trial %d: renamed full system unsat", trial)
		}

		small := NewSystem(set)
		renameS := map[Var]Var{}
		for _, v := range iface {
			renameS[v] = small.Fresh()
		}
		small.AddConstraints(restricted, renameS)
		if errs := small.Solve(); errs != nil {
			t.Fatalf("trial %d: restricted system unsat", trial)
		}

		for _, v := range iface {
			if small.Lower(renameS[v]) != full.Lower(renameF[v]) {
				t.Fatalf("trial %d: restricted Lower(κ%d) = %s, full = %s",
					trial, v, set.Describe(small.Lower(renameS[v])), set.Describe(full.Lower(renameF[v])))
			}
			if small.Upper(renameS[v]) != full.Upper(renameF[v]) {
				t.Fatalf("trial %d: restricted Upper(κ%d) = %s, full = %s",
					trial, v, set.Describe(small.Upper(renameS[v])), set.Describe(full.Upper(renameF[v])))
			}
		}
	}
}

// TestRestrictAddedConstraintsInteraction: bounds added to an instantiated
// interface variable interact across the restricted constraints the same
// way they would across the originals.
func TestRestrictAddedConstraintsInteraction(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	x, mid, y := sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(V(x), V(mid), Reason{})
	sys.Add(V(mid), V(y), Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	restricted := sys.Restrict([]Var{x, y})

	inst := NewSystem(set)
	ix, iy := inst.Fresh(), inst.Fresh()
	inst.AddConstraints(restricted, map[Var]Var{x: ix, y: iy})
	// Push const into the instantiated x: it must reach y even though the
	// original path went through the eliminated variable mid.
	inst.Add(C(set.MustElem("const")), V(ix), Reason{})
	if errs := inst.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !inst.Forced(iy, "const") {
		t.Error("restricted scheme lost the x→y path through an internal variable")
	}
}

func TestRestrictKeepsConstBounds(t *testing.T) {
	set := testSet(t)
	sys := NewSystem(set)
	x, mid := sys.Fresh(), sys.Fresh()
	// const flows into x through an internal variable, and x flows out to
	// a ¬const bound through another internal variable — unsatisfiable
	// only if both facts survive restriction... here kept satisfiable by
	// bounding a different component.
	sys.Add(C(set.MustElem("dynamic")), V(mid), Reason{})
	sys.Add(V(mid), V(x), Reason{})
	mid2 := sys.Fresh()
	sys.Add(V(x), V(mid2), Reason{})
	sys.Add(V(mid2), C(set.MustNot("const")), Reason{})
	if errs := sys.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	restricted := sys.Restrict([]Var{x})
	inst := NewSystem(set)
	ix := inst.Fresh()
	inst.AddConstraints(restricted, map[Var]Var{x: ix})
	if errs := inst.Solve(); errs != nil {
		t.Fatal(errs[0])
	}
	if !inst.Forced(ix, "dynamic") {
		t.Error("constant lower bound lost in restriction")
	}
	if !inst.Forbidden(ix, "const") {
		t.Error("constant upper bound lost in restriction")
	}
}

// TestRestrictSelfLoop pins the projection's self-loop rule: a direct
// x ⊑ x in the input says nothing and projects away, while a cycle
// through an internal variable still yields x ⊑ x, carrying the reason
// of its first hop.
func TestRestrictSelfLoop(t *testing.T) {
	set := testSet(t)
	full := set.FullMask()
	x, i := Var(0), Var(1)
	out, back := Reason{Pos: "t.c:1:1", Msg: "out"}, Reason{Pos: "t.c:2:1", Msg: "back"}
	for _, tc := range []struct {
		name string
		cons []Constraint
		want []Constraint
	}{
		{"direct", []Constraint{{L: V(x), R: V(x), Mask: full}}, nil},
		{"through-internal", []Constraint{{L: V(x), R: V(i), Mask: full, Why: out}, {L: V(i), R: V(x), Mask: full, Why: back}},
			[]Constraint{{L: V(x), R: V(x), Mask: full, Why: out}}},
	} {
		got := Restrict(set, tc.cons, []Var{x})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Restrict = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQuickMaskedPropagation(t *testing.T) {
	set := testSet(t)
	f := func(seedLower uint8, maskBits uint8) bool {
		sys := NewSystem(set)
		a, b := sys.Fresh(), sys.Fresh()
		lo := qual.Elem(seedLower & 7)
		mask := qual.Elem(maskBits & 7)
		sys.Add(C(lo), V(a), Reason{})
		sys.AddMasked(V(a), V(b), mask, Reason{})
		if errs := sys.Solve(); errs != nil {
			return false
		}
		return sys.Lower(b) == (lo & mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveChain(b *testing.B) {
	set := testSet(b)
	for _, size := range []int{100, 1000, 10000} {
		b.Run(itoa(size), func(b *testing.B) {
			sys := NewSystem(set)
			vars := make([]Var, size)
			for i := range vars {
				vars[i] = sys.Fresh()
			}
			sys.Add(C(set.MustElem("const")), V(vars[0]), Reason{})
			for i := 1; i < size; i++ {
				sys.Add(V(vars[i-1]), V(vars[i]), Reason{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := sys.Solve(); errs != nil {
					b.Fatal("unsat")
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestBlamePathValidity: on random unsatisfiable systems, every reported
// blame path is a real chain: it starts at a constant-to-variable
// constraint carrying the offending qualifier and each step's right side
// is the next step's left side, ending at the violated constraint's
// variable.
func TestBlamePathValidity(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(2718))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		sys := NewSystem(set)
		n := 3 + rng.Intn(8)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		for i := 0; i < 4+rng.Intn(16); i++ {
			switch rng.Intn(4) {
			case 0:
				sys.Add(C(qual.Elem(rng.Intn(8))), V(vars[rng.Intn(n)]), Reason{Msg: "seed"})
			case 1, 2:
				sys.Add(V(vars[rng.Intn(n)]), V(vars[rng.Intn(n)]), Reason{Msg: "edge"})
			case 3:
				sys.Add(V(vars[rng.Intn(n)]), C(qual.Elem(rng.Intn(8))), Reason{Msg: "bound"})
			}
		}
		errs := sys.Solve()
		for _, u := range errs {
			if !u.Con.L.IsVar() {
				continue // const-const conflicts carry no path
			}
			if len(u.Path) == 0 {
				t.Fatalf("trial %d: no blame path for %v", trial, u.Con)
			}
			checked++
			// First element is a constant source.
			if u.Path[0].L.IsVar() {
				t.Fatalf("trial %d: blame path starts at a variable: %v", trial, u.Path[0])
			}
			// Chain property and termination at the violated variable.
			for i := 1; i < len(u.Path); i++ {
				prev, cur := u.Path[i-1], u.Path[i]
				if !prev.R.IsVar() || !cur.L.IsVar() || prev.R.Var() != cur.L.Var() {
					t.Fatalf("trial %d: broken chain at %d: %v then %v", trial, i, prev, cur)
				}
			}
			last := u.Path[len(u.Path)-1]
			if !last.R.IsVar() || last.R.Var() != u.Con.L.Var() {
				t.Fatalf("trial %d: path does not reach the violated variable: %v vs %v",
					trial, last, u.Con)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d blame paths checked; generator too benign", checked)
	}
}

// TestRestrictEquivalenceMasked repeats the projection-equivalence
// property with per-component (masked) constraints in the mix.
func TestRestrictEquivalenceMasked(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(424242))
	masks := []qual.Elem{set.FullMask(), set.MustMask("const"), set.MustMask("dynamic"), set.MustMask("const", "nonzero")}
	for trial := 0; trial < 200; trial++ {
		sys := NewSystem(set)
		n := 4 + rng.Intn(8)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		for i := 0; i < 4+rng.Intn(20); i++ {
			m := masks[rng.Intn(len(masks))]
			switch rng.Intn(4) {
			case 0:
				sys.AddMasked(C(qual.Elem(rng.Intn(8))), V(vars[rng.Intn(n)]), m, Reason{})
			case 1, 2:
				sys.AddMasked(V(vars[rng.Intn(n)]), V(vars[rng.Intn(n)]), m, Reason{})
			case 3:
				sys.AddMasked(V(vars[rng.Intn(n)]), C(qual.Elem(rng.Intn(8))), m, Reason{})
			}
		}
		if errs := sys.Solve(); errs != nil {
			continue
		}
		iface := vars[:2]
		restricted := sys.Restrict(iface)

		full := NewSystem(set)
		renameF := map[Var]Var{}
		for _, v := range vars {
			renameF[v] = full.Fresh()
		}
		full.AddConstraints(sys.Constraints(), renameF)
		// Push an extra bound into one interface variable in both
		// systems, exercising interaction across the projection.
		extra := qual.Elem(rng.Intn(8))
		full.Add(C(extra), V(renameF[iface[0]]), Reason{})
		if errs := full.Solve(); errs != nil {
			continue
		}

		small := NewSystem(set)
		renameS := map[Var]Var{}
		for _, v := range iface {
			renameS[v] = small.Fresh()
		}
		small.AddConstraints(restricted, renameS)
		small.Add(C(extra), V(renameS[iface[0]]), Reason{})
		if errs := small.Solve(); errs != nil {
			t.Fatalf("trial %d: restricted unsat where full sat", trial)
		}
		for _, v := range iface {
			if small.Lower(renameS[v]) != full.Lower(renameF[v]) {
				t.Fatalf("trial %d: masked Lower mismatch on κ%d: %s vs %s", trial, v,
					set.Describe(small.Lower(renameS[v])), set.Describe(full.Lower(renameF[v])))
			}
			if small.Upper(renameS[v]) != full.Upper(renameF[v]) {
				t.Fatalf("trial %d: masked Upper mismatch on κ%d: %s vs %s", trial, v,
					set.Describe(small.Upper(renameS[v])), set.Describe(full.Upper(renameF[v])))
			}
		}
	}
}
