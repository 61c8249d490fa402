package constraint

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/qual"
)

// script reads a projection scenario from fuzz bytes; once they run out
// every choice is 0.
type script []byte

func (b *script) next(n int) int {
	if len(*b) == 0 || n <= 0 {
		return 0
	}
	x := int((*b)[0])
	*b = (*b)[1:]
	return x % n
}

// projectScenario runs one System through a sequence of projections read
// from data, checking each against the reference projection. Calls reuse
// the System's workspace, so each one also checks that the last left it
// clean. Between calls the System grows, ranges overlap, interfaces
// repeat variables and name variables the fragment never mentions, and
// in a sparse scenario, as in Restrict, the System allocates no
// variables and its constraints and interfaces name arbitrary ones.
func projectScenario(t *testing.T, set *qual.Set, data []byte) {
	b := script(data)
	full := set.FullMask()
	sys := NewSystem(set)
	sparse := b.next(4) == 0
	var pool []Var
	addVars := func(k int) {
		for range k {
			if sparse {
				pool = append(pool, Var(100+b.next(256)*7))
			} else {
				pool = append(pool, sys.Fresh())
			}
		}
	}
	pick := func() Var {
		if len(pool) == 0 || b.next(16) == 0 {
			// A variable no constraint mentions, possibly beyond
			// NumVars.
			return Var(sys.NumVars() + b.next(2048))
		}
		return pool[b.next(len(pool))]
	}
	var cons []Constraint
	addCons := func(k int) {
		for range k {
			mask := qual.Elem(1+b.next(int(full))) & full
			c := qual.Elem(b.next(int(full) + 1))
			why := Reason{Pos: Pos{File: "f", Line: int32(len(cons))}, Msg: "c"}
			var l, r Term
			switch b.next(3) {
			case 0:
				l, r = V(pick()), V(pick())
			case 1:
				l, r = C(c), V(pick())
			default:
				l, r = V(pick()), C(c)
			}
			sys.AddMasked(l, r, mask, why)
			cons = append(cons, Constraint{L: l, R: r, Mask: mask, Why: why})
		}
	}
	addVars(1 + b.next(24))
	addCons(b.next(64))
	// Every result is checked again at the end: no later call may
	// write into an earlier call's output.
	type result struct{ got, want any }
	var results []result

	for call, calls := 0, 1+b.next(8); call < calls; call++ {
		if b.next(3) == 0 {
			addVars(b.next(8))
			addCons(b.next(16))
		}
		m := sys.NumConstraints()
		rg := func() [2]int {
			lo := b.next(m + 1)
			return [2]int{lo, lo + b.next(m-lo+1)}
		}
		rgs := [][2]int{rg()}
		if b.next(2) == 0 {
			rgs = append(rgs, rg()) // may overlap the first
		}
		iface := make([]Var, b.next(8))
		for i := range iface {
			iface[i] = pick()
		}
		switch b.next(3) {
		case 0:
			cut := Var(b.next(sys.NumVars() + 1))
			local := func(v Var) bool { return v >= cut }
			qv, p := sys.Generalize(iface, local, rgs...)
			wqv, wp := sys.refGeneralize(iface, local, rgs...)
			if !reflect.DeepEqual(qv, wqv) || !reflect.DeepEqual(p, wp) {
				t.Fatalf("call %d: Generalize(%v, local ≥ κ%d, %v) = %v, %+v\nreference %v, %+v", call, iface, cut, rgs, qv, p, wqv, wp)
			}
			results = append(results, result{[]any{qv, p}, []any{wqv, wp}})
		default:
			loops := b.next(2) == 0
			out, span, wit := sys.restrict(rgs, iface, loops)
			wout, wspan, wwit := sys.refRestrict(rgs, iface, loops)
			if !reflect.DeepEqual(out, wout) || !reflect.DeepEqual(span, wspan) || !reflect.DeepEqual(wit, wwit) {
				t.Fatalf("call %d: restrict(%v, %v, loops=%v) =\n%v %v %v\nreference\n%v %v %v", call, rgs, iface, loops, out, span, wit, wout, wspan, wwit)
			}
			results = append(results, result{[]any{out, span, wit}, []any{wout, wspan, wwit}})
		}
	}
	for i, r := range results {
		if !reflect.DeepEqual(r.got, r.want) {
			t.Fatalf("the output of call %d changed after later calls: %v, reference %v", i, r.got, r.want)
		}
	}

	if sparse {
		// The package-level Restrict over the same constraints.
		iface := make([]Var, 1+b.next(8))
		for i := range iface {
			iface[i] = pick()
		}
		ref := NewSystem(set)
		ref.AddConstraints(cons, nil)
		want, _, _ := ref.refRestrict([][2]int{{0, ref.ncons}}, iface, true)
		if got := Restrict(set, cons, iface); !reflect.DeepEqual(got, want) {
			t.Fatalf("Restrict(%v) = %v, reference %v", iface, got, want)
		}
	}
}

// TestProjectMatchesReference checks restrict and Generalize against the
// reference projection (restrict_ref_test.go) on random scenarios: the
// projected constraints, witness spans and witnesses must be identical.
func TestProjectMatchesReference(t *testing.T) {
	set := testSet(t)
	rng := rand.New(rand.NewSource(31))
	for seed := range 2000 {
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("scenario %d: %x", seed, data)
				}
			}()
			projectScenario(t, set, data)
		}()
	}
}

// FuzzProjectReference is TestProjectMatchesReference over fuzzed
// scenarios:
//
//	go test -fuzz=FuzzProjectReference -fuzztime=20s ./internal/constraint
func FuzzProjectReference(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for range 8 {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	set := testSet(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		projectScenario(t, set, data)
	})
}
