package constraint

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/qual"
)

// TestGeneralizeAllocs pins the allocations of one Generalize over a
// fixed 200-constraint fragment on a System whose workspace is warm:
// the quantified variables, the Projection and its two arrays (the
// constraints; the witness spans and witnesses, which share one). A
// return of per-call scratch fails it: before the workspace, with a map
// and fresh scratch slices and CSRs per call, the same call made 99
// allocations.
func TestGeneralizeAllocs(t *testing.T) {
	const measured = 4
	set := testSet(t)
	full := int(set.FullMask())
	rng := rand.New(rand.NewSource(1))
	sys := NewSystem(set)
	shared := make([]Var, 40)
	for i := range shared {
		shared[i] = sys.Fresh()
	}
	first := sys.NumVars()
	vars := make([]Var, 120)
	for i := range vars {
		vars[i] = sys.Fresh()
	}
	pick := func() Var {
		if rng.Intn(8) == 0 {
			return shared[rng.Intn(len(shared))]
		}
		return vars[rng.Intn(len(vars))]
	}
	lo := sys.NumConstraints()
	for sys.NumConstraints()-lo < 200 {
		mask := qual.Elem(1 + rng.Intn(full))
		switch rng.Intn(4) {
		case 0:
			sys.AddMasked(C(qual.Elem(rng.Intn(full+1))), V(pick()), mask, Reason{Msg: "lower"})
		case 1:
			sys.AddMasked(V(pick()), C(qual.Elem(rng.Intn(full+1))), mask, Reason{Msg: "upper"})
		default:
			sys.AddMasked(V(pick()), V(pick()), mask, Reason{Msg: "edge"})
		}
	}
	rg := [2]int{lo, sys.NumConstraints()}
	body := vars[:12]
	local := func(v Var) bool { return int(v) >= first }
	var qvars []Var
	var p *Projection
	generalize := func() { qvars, p = sys.Generalize(body, local, rg) }
	generalize()
	if len(qvars) == 0 || len(p.Cons) == 0 {
		t.Fatalf("the fragment projects to %d constraints over %d quantified variables; want a non-trivial scheme", len(p.Cons), len(qvars))
	}
	allocs := testing.AllocsPerRun(20, generalize)
	if allocs > measured*1.1 {
		t.Errorf("Generalize over %d constraints made %v allocations, want at most %v", rg[1]-rg[0], allocs, measured*1.1)
	}
	t.Logf("%v allocations; %d constraints, %d quantified variables", allocs, len(p.Cons), len(qvars))
}

// TestRestrictSizedByFragment: Restrict renumbers the variables of its
// slice before projecting, so the workspace's marks are sized by the
// fragment, not by the largest variable it names. SchemeString
// re-projects each function's scheme this way, and its variables reach
// far into the System they came from; marks sized by those variables
// cost megabytes per function.
func TestRestrictSizedByFragment(t *testing.T) {
	set := testSet(t)
	far := Var(1 << 24)
	cons := []Constraint{
		{L: V(far), R: V(far + 2), Mask: set.FullMask()},
		{L: V(far + 2), R: V(3), Mask: set.FullMask()},
		{L: C(set.MustElem("const")), R: V(far), Mask: set.FullMask()},
	}
	var got []Constraint
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got = Restrict(set, cons, []Var{far, 3})
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Restrict over 3 constraints allocated %d bytes", n)
	}
	want := []Constraint{
		{L: V(far), R: V(3), Mask: set.FullMask()},
		{L: C(set.MustElem("const")), R: V(far), Mask: set.MustElem("const")},
	}
	if len(got) != len(want) {
		t.Fatalf("Restrict = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].L != want[i].L || got[i].R != want[i].R || got[i].Mask != want[i].Mask {
			t.Errorf("Restrict = %v, want %v", got, want)
			break
		}
	}
}
