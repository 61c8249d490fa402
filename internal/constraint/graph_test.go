package constraint_test

// Oracle tests for the worklist engine (graph.go): Solve and Restrict
// are checked against referenceSolve, a naive round-robin fixpoint
// straight over the constraint list through the public API, and a
// brute-force instantiation oracle for Restrict.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/constraint"
	"repro/internal/qual"
)

// referenceSolve is a masked fixpoint iterated round-robin straight over
// the constraint list. It is deliberately naive — the worklist engine
// must match it bit for bit on every variable.
func referenceSolve(sys *constraint.System) (lower, upper []qual.Elem) {
	set := sys.Set()
	n := sys.NumVars()
	top := set.Top()
	lower = make([]qual.Elem, n)
	upper = make([]qual.Elem, n)
	for i := range upper {
		upper[i] = top
	}
	type edge struct {
		to   constraint.Var
		mask qual.Elem
	}
	fwd := make([][]edge, n)
	rev := make([][]edge, n)
	for _, c := range sys.Slice(0, sys.NumConstraints()) {
		switch {
		case c.L.IsVar() && c.R.IsVar():
			fwd[c.L.Var()] = append(fwd[c.L.Var()], edge{c.R.Var(), c.Mask})
			rev[c.R.Var()] = append(rev[c.R.Var()], edge{c.L.Var(), c.Mask})
		case !c.L.IsVar() && c.R.IsVar():
			lower[c.R.Var()] |= c.L.Const() & c.Mask
		case c.L.IsVar() && !c.R.IsVar():
			upper[c.L.Var()] = qual.Meet(upper[c.L.Var()], c.R.Const()|^c.Mask)
		}
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			for _, e := range fwd[v] {
				add := lower[v] & e.mask
				if !qual.Leq(add, lower[e.to]) {
					lower[e.to] |= add
					changed = true
				}
			}
			for _, e := range rev[v] {
				bound := upper[v] | ^e.mask
				if !qual.Leq(upper[e.to], bound) {
					upper[e.to] = qual.Meet(upper[e.to], bound)
					changed = true
				}
			}
		}
	}
	return lower, upper
}

func set2(t testing.TB) *qual.Set {
	t.Helper()
	set, err := qual.NewSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "tainted", Sign: qual.Positive},
	)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func set3(t testing.TB) *qual.Set {
	t.Helper()
	set, err := qual.NewSet(
		qual.Qualifier{Name: "a", Sign: qual.Positive},
		qual.Qualifier{Name: "b", Sign: qual.Positive},
		qual.Qualifier{Name: "c", Sign: qual.Positive},
	)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func checkAgainstReference(t *testing.T, sys *constraint.System) {
	t.Helper()
	wantLower, wantUpper := referenceSolve(sys)
	sys.Solve()
	for v := 0; v < sys.NumVars(); v++ {
		if got := sys.Lower(constraint.Var(v)); got != wantLower[v] {
			t.Errorf("lower(κ%d) = %#x, reference %#x", v, uint64(got), uint64(wantLower[v]))
		}
		if got := sys.Upper(constraint.Var(v)); got != wantUpper[v] {
			t.Errorf("upper(κ%d) = %#x, reference %#x", v, uint64(got), uint64(wantUpper[v]))
		}
	}
}

// TestSolveFullMaskCycleCollapses: a full-mask ⊑-cycle makes its members
// equal in both solutions.
func TestSolveFullMaskCycleCollapses(t *testing.T) {
	set := set2(t)
	sys := constraint.NewSystem(set)
	vs := make([]constraint.Var, 4)
	for i := range vs {
		vs[i] = sys.Fresh()
	}
	for i := range vs {
		sys.Add(constraint.V(vs[i]), constraint.V(vs[(i+1)%len(vs)]), constraint.Reason{})
	}
	seed := set.MustElem("const")
	sys.Add(constraint.C(seed), constraint.V(vs[2]), constraint.Reason{})
	checkAgainstReference(t, sys)
	for _, v := range vs {
		if got := sys.Lower(v); got != seed {
			t.Errorf("lower(κ%d) = %#x, want the seed on every cycle member", int(v), uint64(got))
		}
	}
}

// TestSolveMaskedCycleDoesNotOverMerge: a cycle whose edges carry
// disjoint masks forces no equality — the bits must not leak around it.
func TestSolveMaskedCycleDoesNotOverMerge(t *testing.T) {
	set := set2(t)
	bitConst := set.MustElem("const")
	bitTaint := set.MustElem("tainted")
	sys := constraint.NewSystem(set)
	a, b := sys.Fresh(), sys.Fresh()
	sys.AddMasked(constraint.V(a), constraint.V(b), bitConst, constraint.Reason{})
	sys.AddMasked(constraint.V(b), constraint.V(a), bitTaint, constraint.Reason{})
	sys.Add(constraint.C(bitConst), constraint.V(a), constraint.Reason{})
	sys.Add(constraint.C(bitTaint), constraint.V(b), constraint.Reason{})
	checkAgainstReference(t, sys)
	if got := sys.Lower(b); got != bitConst|bitTaint {
		t.Errorf("lower(b) = %#x, want const|tainted", uint64(got))
	}
	if got := sys.Lower(a); got != bitConst|bitTaint {
		t.Errorf("lower(a) = %#x, want const|tainted (each bit via its own edge)", uint64(got))
	}
}

// TestSolveOverlappingMaskClasses: edges masked {a,b} and {b,c} form a
// two-edge cycle only on component b, so values may only equalize on b.
func TestSolveOverlappingMaskClasses(t *testing.T) {
	set := set3(t)
	ma := set.MustElem("a") | set.MustElem("b")
	mc := set.MustElem("b") | set.MustElem("c")
	sys := constraint.NewSystem(set)
	x, y := sys.Fresh(), sys.Fresh()
	sys.AddMasked(constraint.V(x), constraint.V(y), ma, constraint.Reason{})
	sys.AddMasked(constraint.V(y), constraint.V(x), mc, constraint.Reason{})
	sys.Add(constraint.C(set.MustElem("a")|set.MustElem("b")), constraint.V(x), constraint.Reason{})
	checkAgainstReference(t, sys)
	// a flows x→y on component a; b circulates both ways; nothing carries c.
	if got := sys.Lower(y); got != ma {
		t.Errorf("lower(y) = %#x, want a|b", uint64(got))
	}
	if got := sys.Lower(x); got != ma {
		t.Errorf("lower(x) = %#x, want a|b (b returns via the {b,c} edge)", uint64(got))
	}
}

// TestSolveMatchesReferenceRandom drives the worklist engine against
// the naive reference on randomized systems: arbitrary masked edges in
// both directions (satisfiable or not), random constant bounds.
func TestSolveMatchesReferenceRandom(t *testing.T) {
	set := set3(t)
	full := set.FullMask()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := constraint.NewSystem(set)
		n := 3 + rng.Intn(20)
		vs := make([]constraint.Var, n)
		for i := range vs {
			vs[i] = sys.Fresh()
		}
		mask := func() qual.Elem {
			switch rng.Intn(3) {
			case 0:
				return full
			case 1:
				return qual.Elem(1) << uint(rng.Intn(set.Len()))
			default:
				return qual.Elem(rng.Uint64()) & full
			}
		}
		for k := 2 * n; k > 0; k-- {
			a, b := vs[rng.Intn(n)], vs[rng.Intn(n)]
			sys.AddMasked(constraint.V(a), constraint.V(b), mask(), constraint.Reason{})
		}
		for k := n / 2; k > 0; k-- {
			sys.AddMasked(constraint.C(qual.Elem(rng.Uint64())&full), constraint.V(vs[rng.Intn(n)]), mask(), constraint.Reason{})
			sys.AddMasked(constraint.V(vs[rng.Intn(n)]), constraint.C(qual.Elem(rng.Uint64())&full), mask(), constraint.Reason{})
		}
		checkAgainstReference(t, sys)
	}
}

// TestSolveMatchesReferenceCycleSystems runs the benchmark generator's
// graph shapes — including structure-level masks — through the same
// equivalence check, and re-solves after adding constraints.
func TestSolveMatchesReferenceCycleSystems(t *testing.T) {
	set := set2(t)
	for _, cfg := range []benchgen.CycleConfig{
		{Vars: 300, CycleFrac: 0.9, CycleLen: 7, CrossEdges: 80, MaskedFrac: 0.3, Seed: 1},
		{Vars: 300, CycleFrac: 0.5, CycleLen: 4, CrossEdges: 200, MaskedFrac: 0.9, Seed: 2, StructMasks: true},
		{Vars: 200, CycleFrac: 0, CycleLen: 8, CrossEdges: 50, MaskedFrac: 0.2, Seed: 3},
	} {
		sys, _ := benchgen.CycleSystem(set, cfg)
		if errs := sys.Solve(); errs != nil {
			t.Fatalf("cfg %+v: generated system unsatisfiable", cfg)
		}
		checkAgainstReference(t, sys)
		// Re-solve: new constraints must invalidate the old solution.
		v0 := constraint.Var(0)
		w := sys.Fresh()
		sys.Add(constraint.V(v0), constraint.V(w), constraint.Reason{})
		sys.Add(constraint.C(set.MustElem("tainted")), constraint.V(v0), constraint.Reason{})
		checkAgainstReference(t, sys)
	}
}

// solveWith reports whether cons plus the pinning constraints for vals
// is satisfiable over nvars variables.
func solveWith(set *qual.Set, nvars int, cons []constraint.Constraint, pins map[constraint.Var]qual.Elem) bool {
	sys := constraint.NewSystem(set)
	for i := 0; i < nvars; i++ {
		sys.Fresh()
	}
	for _, c := range cons {
		sys.AddMasked(c.L, c.R, c.Mask, c.Why)
	}
	for v, e := range pins {
		sys.Add(constraint.C(e), constraint.V(v), constraint.Reason{})
		sys.Add(constraint.V(v), constraint.C(e), constraint.Reason{})
	}
	return sys.Solve() == nil
}

// TestRestrictInstantiationOracle is the brute-force exactness check for
// the rewritten Restrict: over a two-analysis product lattice with
// masked cycles spanning interface and internal variables, the projected
// constraint set must be satisfiable under exactly the same interface
// valuations as the original set. Pinning every interface variable to
// every lattice element enumerates all instantiations.
func TestRestrictInstantiationOracle(t *testing.T) {
	set := set2(t)
	full := set.FullMask()
	bitC := set.MustElem("const")
	bitT := set.MustElem("tainted")

	type tc struct {
		name  string
		nvars int
		iface []constraint.Var
		cons  []constraint.Constraint
	}
	v := func(i int) constraint.Term { return constraint.V(constraint.Var(i)) }
	cases := []tc{
		{
			// ι0 →(const) x2 → x3 →(const) ι0 is a masked cycle through
			// internals; x3 ⇄ x4 cycles on tainted only; ι1 feeds x4.
			name:  "masked-cycles-spanning-iface",
			nvars: 5,
			iface: []constraint.Var{0, 1},
			cons: []constraint.Constraint{
				{L: v(0), R: v(2), Mask: bitC},
				{L: v(2), R: v(3), Mask: full},
				{L: v(3), R: v(0), Mask: bitC},
				{L: v(3), R: v(4), Mask: bitT},
				{L: v(4), R: v(3), Mask: bitT},
				{L: v(1), R: v(4), Mask: full},
				{L: constraint.C(bitT), R: v(2), Mask: bitT},
				{L: v(4), R: constraint.C(0), Mask: bitC},
			},
		},
		{
			// Disjoint masks around one internal cycle: each analysis
			// sees a different subgraph of the same variables.
			name:  "disjoint-mask-internal-cycle",
			nvars: 4,
			iface: []constraint.Var{0},
			cons: []constraint.Constraint{
				{L: v(0), R: v(1), Mask: full},
				{L: v(1), R: v(2), Mask: bitC},
				{L: v(2), R: v(1), Mask: bitT},
				{L: v(2), R: v(3), Mask: full},
				{L: v(3), R: v(2), Mask: full},
				{L: v(3), R: constraint.C(bitT), Mask: full},
			},
		},
	}

	// Randomized systems: masked edges over a few internals and two
	// interface variables, filtered to keep the unpinned base system
	// satisfiable (Restrict is only ever applied to solved bodies).
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		nvars := 6
		var cons []constraint.Constraint
		mask := func() qual.Elem {
			switch rng.Intn(3) {
			case 0:
				return full
			case 1:
				return bitC
			default:
				return bitT
			}
		}
		for k := 0; k < 10; k++ {
			a, b := rng.Intn(nvars), rng.Intn(nvars)
			if a == b {
				continue
			}
			cons = append(cons, constraint.Constraint{L: v(a), R: v(b), Mask: mask()})
		}
		for k := 0; k < 2; k++ {
			cons = append(cons, constraint.Constraint{
				L: constraint.C(qual.Elem(rng.Uint64()) & full), R: v(2 + rng.Intn(nvars-2)), Mask: mask()})
			cons = append(cons, constraint.Constraint{
				L: v(2 + rng.Intn(nvars-2)), R: constraint.C(qual.Elem(rng.Uint64()) & full), Mask: mask()})
		}
		if !solveWith(set, nvars, cons, nil) {
			continue
		}
		cases = append(cases, tc{
			name:  fmt.Sprintf("random-%d", seed),
			nvars: nvars,
			iface: []constraint.Var{0, 1},
			cons:  cons,
		})
	}

	elems := []qual.Elem{0, bitC, bitT, bitC | bitT}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			restricted := constraint.Restrict(set, c.cons, c.iface)
			pins := make(map[constraint.Var]qual.Elem, len(c.iface))
			var walk func(i int)
			walk = func(i int) {
				if i == len(c.iface) {
					want := solveWith(set, c.nvars, c.cons, pins)
					got := solveWith(set, c.nvars, restricted, pins)
					if got != want {
						t.Errorf("pins %v: original satisfiable=%v, restricted=%v", pins, want, got)
					}
					return
				}
				for _, e := range elems {
					pins[c.iface[i]] = e
					walk(i + 1)
				}
				delete(pins, c.iface[i])
			}
			walk(0)
		})
	}
}

// TestRestrictDeterministic: the projection must be byte-identical
// across runs — scheme constraints feed instantiation replay.
func TestRestrictDeterministic(t *testing.T) {
	set := set2(t)
	sys, iface := benchgen.CycleSystem(set, benchgen.CycleConfig{
		Vars: 200, CycleFrac: 0.7, CycleLen: 5, CrossEdges: 120, MaskedFrac: 0.4, Seed: 7,
	})
	first := constraint.Restrict(set, sys.Slice(0, sys.NumConstraints()), iface)
	for i := 0; i < 5; i++ {
		again := constraint.Restrict(set, sys.Slice(0, sys.NumConstraints()), iface)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d constraints, want %d", i, len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("run %d: constraint %d = %v, want %v", i, j, again[j], first[j])
			}
		}
	}
}

// benchSolveSystems are shared by the engine-vs-reference benchmark
// pair below; the wide shape models a multi-analysis registry (8
// analyses, structure-level masks, long recursion cycles).
func benchSolveSystems(b *testing.B) map[string]*constraint.System {
	b.Helper()
	set2q := set2(b)
	quals := make([]qual.Qualifier, 8)
	for i := range quals {
		quals[i] = qual.Qualifier{Name: fmt.Sprintf("q%d", i), Sign: qual.Positive}
	}
	set8q, err := qual.NewSet(quals...)
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[string]*constraint.System)
	sys, _ := benchgen.CycleSystem(set2q, benchgen.CycleConfig{
		Vars: 50000, CycleFrac: 0.9, CycleLen: 8, CrossEdges: 12500, MaskedFrac: 0.2, Seed: 50000,
	})
	out["2q/edge-masks"] = sys
	sys, _ = benchgen.CycleSystem(set8q, benchgen.CycleConfig{
		Vars: 50000, CycleFrac: 0.9, CycleLen: 32, CrossEdges: 12500,
		Seeds: 6250, Bounds: 6250, MaskedFrac: 0.85, StructMasks: true, Seed: 50000,
	})
	out["8q/struct-masks"] = sys
	return out
}

// BenchmarkSolve / BenchmarkSolveReference pit the worklist engine
// against the naive round-robin fixpoint on identical systems.
func BenchmarkSolve(b *testing.B) {
	for name, sys := range benchSolveSystems(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if errs := sys.Solve(); errs != nil {
					b.Fatal("unsat")
				}
			}
		})
	}
}

func BenchmarkSolveReference(b *testing.B) {
	for name, sys := range benchSolveSystems(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lower, _ := referenceSolve(sys)
				if len(lower) == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}
