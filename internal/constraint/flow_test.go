package constraint

import (
	"testing"

	"repro/internal/qual"
)

// flowFixture builds a system over the test set plus the seed value
// (const present) and sink bound (bottom: const absent) the flow tests
// share.
func flowFixture(t *testing.T) (*System, qual.Elem, qual.Elem) {
	t.Helper()
	set := testSet(t)
	seed, err := set.With(set.Bottom(), "const")
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(set), seed, set.Bottom()
}

func pathMsgs(u *Unsat) []string {
	var out []string
	for _, c := range u.Path {
		out = append(out, c.Why.Msg)
	}
	return out
}

func wantMsgs(t *testing.T, u *Unsat, want ...string) {
	t.Helper()
	got := pathMsgs(u)
	if len(got) != len(want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
}

// TestBlameShortestPath: when a long chain and a shortcut both carry the
// offending qualifier to the sink, the reported flow path is the
// fewest-hop chain.
func TestBlameShortestPath(t *testing.T) {
	sys, seed, bottom := flowFixture(t)
	v := make([]Var, 5)
	for i := range v {
		v[i] = sys.Fresh()
	}
	sys.Add(C(seed), V(v[0]), Reason{Msg: "seed"})
	sys.Add(V(v[0]), V(v[1]), Reason{Msg: "hop a"})
	sys.Add(V(v[1]), V(v[2]), Reason{Msg: "hop b"})
	sys.Add(V(v[2]), V(v[3]), Reason{Msg: "hop c"})
	sys.Add(V(v[3]), V(v[4]), Reason{Msg: "hop d"})
	sys.Add(V(v[0]), V(v[4]), Reason{Msg: "shortcut"})
	sys.Add(V(v[4]), C(bottom), Reason{Msg: "sink"})

	unsat := sys.Solve()
	if len(unsat) != 1 {
		t.Fatalf("%d conflicts, want 1", len(unsat))
	}
	if unsat[0].Con.Why.Msg != "sink" {
		t.Errorf("conflict at %q, want sink", unsat[0].Con.Why.Msg)
	}
	wantMsgs(t, unsat[0], "seed", "shortcut")
}

// TestBlameTieBreak: among equal-length paths the earliest constraints in
// insertion order win, which is what makes traces byte-identical across
// worker counts (insertion order itself is deterministic).
func TestBlameTieBreak(t *testing.T) {
	sys, seed, bottom := flowFixture(t)
	v := make([]Var, 4)
	for i := range v {
		v[i] = sys.Fresh()
	}
	sys.Add(C(seed), V(v[0]), Reason{Msg: "seed"})
	sys.Add(V(v[0]), V(v[1]), Reason{Msg: "early mid"})
	sys.Add(V(v[0]), V(v[2]), Reason{Msg: "late mid"})
	sys.Add(V(v[1]), V(v[3]), Reason{Msg: "early last"})
	sys.Add(V(v[2]), V(v[3]), Reason{Msg: "late last"})
	sys.Add(V(v[3]), C(bottom), Reason{Msg: "sink"})

	unsat := sys.Solve()
	if len(unsat) != 1 {
		t.Fatalf("%d conflicts, want 1", len(unsat))
	}
	wantMsgs(t, unsat[0], "seed", "early mid", "early last")
}

// TestBlameMaskedEdges: an edge restricted to a different lattice
// component cannot carry the blame, even when it is shorter.
func TestBlameMaskedEdges(t *testing.T) {
	sys, seed, bottom := flowFixture(t)
	set := sys.Set()
	other := set.MustMask("dynamic")
	v := make([]Var, 3)
	for i := range v {
		v[i] = sys.Fresh()
	}
	sys.Add(C(seed), V(v[0]), Reason{Msg: "seed"})
	sys.AddMasked(V(v[0]), V(v[2]), other, Reason{Msg: "wrong component"})
	sys.Add(V(v[0]), V(v[1]), Reason{Msg: "mid"})
	sys.Add(V(v[1]), V(v[2]), Reason{Msg: "last"})
	sys.Add(V(v[2]), C(bottom), Reason{Msg: "sink"})

	unsat := sys.Solve()
	if len(unsat) != 1 {
		t.Fatalf("%d conflicts, want 1", len(unsat))
	}
	wantMsgs(t, unsat[0], "seed", "mid", "last")
}

// TestConflictDedup: sinks replaying the same provenance (as polymorphic
// instantiation does) collapse to one report; a sink with distinct
// provenance stays separate.
func TestConflictDedup(t *testing.T) {
	sys, seed, bottom := flowFixture(t)
	a, b := sys.Fresh(), sys.Fresh()
	sys.Add(C(seed), V(a), Reason{Msg: "seed"})
	sys.Add(V(a), V(b), Reason{Msg: "hop"})
	sys.Add(V(b), C(bottom), Reason{Pos: Pos{File: "f.c", Line: 3, Col: 1}, Msg: "sink"})
	sys.Add(V(b), C(bottom), Reason{Pos: Pos{File: "f.c", Line: 3, Col: 1}, Msg: "sink"}) // replayed copy
	sys.Add(V(b), C(bottom), Reason{Pos: Pos{File: "f.c", Line: 9, Col: 1}, Msg: "other sink"})

	unsat := sys.Solve()
	if len(unsat) != 2 {
		t.Fatalf("%d conflicts, want 2 (replayed sink deduplicated)", len(unsat))
	}
	if unsat[0].Con.Why.Msg != "sink" || unsat[1].Con.Why.Msg != "other sink" {
		t.Errorf("conflicts = %q, %q", unsat[0].Con.Why.Msg, unsat[1].Con.Why.Msg)
	}
}

// TestConflictDedupDistinctOrigins: equal sinks fed from different seeds
// are different root causes and must both survive.
func TestConflictDedupDistinctOrigins(t *testing.T) {
	sys, seed, bottom := flowFixture(t)
	a, b, s1, s2 := sys.Fresh(), sys.Fresh(), sys.Fresh(), sys.Fresh()
	sys.Add(C(seed), V(a), Reason{Msg: "seed a"})
	sys.Add(C(seed), V(b), Reason{Msg: "seed b"})
	sys.Add(V(a), V(s1), Reason{Msg: "to s1"})
	sys.Add(V(b), V(s2), Reason{Msg: "to s2"})
	sys.Add(V(s1), C(bottom), Reason{Msg: "sink"})
	sys.Add(V(s2), C(bottom), Reason{Msg: "sink"})

	unsat := sys.Solve()
	if len(unsat) != 2 {
		t.Fatalf("%d conflicts, want 2 (distinct origins)", len(unsat))
	}
	wantMsgs(t, unsat[0], "seed a", "to s1")
	wantMsgs(t, unsat[1], "seed b", "to s2")
}
