package constraint_test

// The re-solve stress test: a System re-solved after adding constraints
// must match the naive reference.

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// TestIncrementalSolveStress re-solves growing random masked systems,
// comparing every intermediate solution against the naive reference.
func TestIncrementalSolveStress(t *testing.T) {
	set, err := qual.NewSet(
		qual.Qualifier{Name: "a", Sign: qual.Positive},
		qual.Qualifier{Name: "b", Sign: qual.Positive},
		qual.Qualifier{Name: "c", Sign: qual.Positive},
	)
	if err != nil {
		t.Fatal(err)
	}
	full := set.FullMask()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sys := constraint.NewSystem(set)
		nv := 2 + rng.Intn(20)
		vars := make([]constraint.Var, nv)
		for i := range vars {
			vars[i] = sys.Fresh()
		}
		randMask := func() qual.Elem {
			m := qual.Elem(rng.Intn(int(full))) + 1
			return m & full
		}
		addRandom := func(k int) {
			for j := 0; j < k; j++ {
				m := randMask()
				switch rng.Intn(4) {
				case 0:
					sys.AddMasked(constraint.C(qual.Elem(rng.Intn(int(full+1)))), constraint.V(vars[rng.Intn(len(vars))]), m, constraint.Reason{})
				case 1:
					sys.AddMasked(constraint.V(vars[rng.Intn(len(vars))]), constraint.C(qual.Elem(rng.Intn(int(full+1)))), m, constraint.Reason{})
				default:
					sys.AddMasked(constraint.V(vars[rng.Intn(len(vars))]), constraint.V(vars[rng.Intn(len(vars))]), m, constraint.Reason{})
				}
			}
		}
		for round := 0; round < 4; round++ {
			addRandom(5 + rng.Intn(30))
			if round > 0 && rng.Intn(2) == 0 {
				vars = append(vars, sys.Fresh())
			}
			sys.Solve()
			wantLower, wantUpper := referenceSolve(sys)
			for v := 0; v < sys.NumVars(); v++ {
				if got := sys.Lower(constraint.Var(v)); got != wantLower[v] {
					t.Fatalf("trial %d round %d: lower(κ%d)=%#x want %#x", trial, round, v, uint64(got), uint64(wantLower[v]))
				}
				if got := sys.Upper(constraint.Var(v)); got != wantUpper[v] {
					t.Fatalf("trial %d round %d: upper(κ%d)=%#x want %#x", trial, round, v, uint64(got), uint64(wantUpper[v]))
				}
			}
		}
	}
}
