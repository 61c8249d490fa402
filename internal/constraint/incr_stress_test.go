package constraint_test

// The incremental-solve stress test and the delta oracle.
//
// TestIncrementalSolveStress checks the append-only path: a System
// re-solved after adding constraints must match the naive reference.
//
// TestDeltaOracleStress is the delta re-solve oracle — the
// non-negotiable spine of the Session engine: randomized fragment edit
// scripts (add, remove, reorder, grow the variable universe) where
// every round's session solve is compared against a cold solve of an
// identical system. Solutions, Unsat reports (blame paths included),
// and the classic SolveStats counters must be identical; the test also
// asserts that both the delta path and the fallback path actually ran,
// so a regression cannot hide behind "always fall back".

import (
	"fmt"
	"math/rand"
	"reflect"
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

// oracleFrag is one content-addressed fragment of the edit script: a
// fixed list of constraints replayed verbatim (same variable ids) into
// every round's system that includes it.
type oracleFrag struct {
	key  string
	cons []constraint.Constraint
}

// buildOracleSystem materializes the active fragments into a fresh
// system, in order, and records each fragment's span. AddMasked's
// trivial-constraint filtering is deterministic on content, so spans
// derived by counting are stable across rebuilds.
func buildOracleSystem(set *qual.Set, nv int, frags []*oracleFrag) (*constraint.System, []constraint.FragmentSpan) {
	sys := constraint.NewSystem(set)
	for i := 0; i < nv; i++ {
		sys.Fresh()
	}
	spans := make([]constraint.FragmentSpan, len(frags))
	for i, f := range frags {
		start := sys.NumConstraints()
		for _, c := range f.cons {
			sys.AddMasked(c.L, c.R, c.Mask, c.Why)
		}
		spans[i] = constraint.FragmentSpan{Key: f.key, Start: start, End: sys.NumConstraints()}
	}
	return sys, spans
}

func TestDeltaOracleStress(t *testing.T) {
	set, err := qual.NewSet(
		qual.Qualifier{Name: "a", Sign: qual.Positive},
		qual.Qualifier{Name: "b", Sign: qual.Positive},
		qual.Qualifier{Name: "c", Sign: qual.Positive},
	)
	if err != nil {
		t.Fatal(err)
	}
	full := set.FullMask()
	hits, fallbacks := 0, 0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(1000 + int64(trial)))
		nv := 8 + rng.Intn(24)
		nextID := 0
		mkFrag := func() *oracleFrag {
			id := nextID
			nextID++
			f := &oracleFrag{key: fmt.Sprintf("f%d", id)}
			// Most fragments allocate a private variable block and refer
			// mainly to it (the shape constinfer produces: a body's locals
			// plus a few shared signature variables); the rest scribble
			// anywhere, which keeps the fallback paths exercised too.
			pick := func() int { return rng.Intn(nv) }
			if rng.Intn(5) != 0 {
				lo := nv
				nv += 2 + rng.Intn(5)
				pick = func() int {
					if rng.Intn(4) == 0 {
						return rng.Intn(8)
					}
					return lo + rng.Intn(nv-lo)
				}
			}
			k := 1 + rng.Intn(12)
			for j := 0; j < k; j++ {
				m := (qual.Elem(rng.Intn(int(full))) + 1) & full
				why := constraint.Reason{Pos: fmt.Sprintf("%s:%d", f.key, j), Msg: "oracle"}
				v1 := constraint.V(constraint.Var(pick()))
				switch rng.Intn(6) {
				case 0:
					f.cons = append(f.cons, constraint.Constraint{L: constraint.C(qual.Elem(rng.Intn(int(full + 1)))), R: v1, Mask: m, Why: why})
				case 1:
					f.cons = append(f.cons, constraint.Constraint{L: v1, R: constraint.C(qual.Elem(rng.Intn(int(full + 1)))), Mask: m, Why: why})
				case 2:
					// Short ⊑-cycle inside the fragment: removing this
					// fragment later forces the SCC-split fallback.
					a, b := pick(), pick()
					f.cons = append(f.cons,
						constraint.Constraint{L: constraint.V(constraint.Var(a)), R: constraint.V(constraint.Var(b)), Mask: m, Why: why},
						constraint.Constraint{L: constraint.V(constraint.Var(b)), R: constraint.V(constraint.Var(a)), Mask: m, Why: why})
				default:
					v2 := constraint.V(constraint.Var(pick()))
					f.cons = append(f.cons, constraint.Constraint{L: v1, R: v2, Mask: m, Why: why})
				}
			}
			return f
		}
		var active []*oracleFrag
		sess := constraint.NewSession(set)
		rounds := 5 + rng.Intn(4)
		for round := 0; round < rounds; round++ {
			if round > 0 {
				for i, nrem := 0, rng.Intn(3); i < nrem && len(active) > 0; i++ {
					j := rng.Intn(len(active))
					active = append(active[:j], active[j+1:]...)
				}
				if rng.Intn(4) == 0 {
					nv += 1 + rng.Intn(6)
				}
			}
			for i, nadd := 0, 1+rng.Intn(4); i < nadd; i++ {
				f := mkFrag()
				j := rng.Intn(len(active) + 1)
				active = append(active[:j], append([]*oracleFrag{f}, active[j:]...)...)
			}
			if rng.Intn(5) == 0 {
				rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
			}

			sysDelta, spans := buildOracleSystem(set, nv, active)
			sysCold, _ := buildOracleSystem(set, nv, active)
			gotUnsat := sess.Solve(sysDelta, spans)
			wantUnsat := sysCold.Solve()

			d := sess.Delta()
			if d.Applied {
				hits++
			} else if d.Fallback != "first-solve" {
				fallbacks++
			}

			for v := 0; v < nv; v++ {
				if got, want := sysDelta.Lower(constraint.Var(v)), sysCold.Lower(constraint.Var(v)); got != want {
					t.Fatalf("trial %d round %d (%+v): lower(κ%d)=%#x want %#x", trial, round, d, v, uint64(got), uint64(want))
				}
				if got, want := sysDelta.Upper(constraint.Var(v)), sysCold.Upper(constraint.Var(v)); got != want {
					t.Fatalf("trial %d round %d (%+v): upper(κ%d)=%#x want %#x", trial, round, d, v, uint64(got), uint64(want))
				}
			}
			if !reflect.DeepEqual(gotUnsat, wantUnsat) {
				t.Fatalf("trial %d round %d (%+v): unsat mismatch\n got: %v\nwant: %v", trial, round, d, gotUnsat, wantUnsat)
			}
			gs, ws := sysDelta.Stats(), sysCold.Stats()
			gs.DeltaHits, gs.DeltaFallbacks, gs.ResolvedSCCs, gs.DirtyVars = 0, 0, 0, 0
			if gs != ws {
				t.Fatalf("trial %d round %d (%+v): stats mismatch\n got: %+v\nwant: %+v", trial, round, d, gs, ws)
			}
		}
	}
	// Both paths must have been exercised, or the oracle proves nothing.
	if hits == 0 {
		t.Fatal("delta path never applied across all trials")
	}
	if fallbacks == 0 {
		t.Fatal("fallback path never taken across all trials")
	}
	t.Logf("delta oracle: %d hits, %d fallbacks", hits, fallbacks)
}
