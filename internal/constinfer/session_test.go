package constinfer

import (
	"context"
	"testing"

	"repro/internal/cfront"
	"repro/internal/constraint"
)

// analyzeThroughSession runs the full pipeline on src with the solve
// stage called through SolveSession, returning the report.
func analyzeThroughSession(t *testing.T, ss *constraint.Session, src string, opts Options) *Report {
	t.Helper()
	f, err := cfront.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalysis([]*cfront.File{f}, opts)
	a.Prepare()
	a.Constrain(1)
	return a.Classify(a.SolveSession(context.Background(), ss))
}

const sessProgV1 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

// v2 edits only the last function.
const sessProgV2 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); probe(buf); }
`

func testSessionMatchesCold(t *testing.T, opts Options) {
	ss := constraint.NewSession(NewAnalysis(nil, opts).Set())
	for round, src := range []string{sessProgV1, sessProgV2, sessProgV1} {
		got := analyzeThroughSession(t, ss, src, opts)
		want, err := AnalyzeSource("t.c", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Positions) != len(want.Positions) {
			t.Fatalf("round %d: %d positions, want %d", round, len(got.Positions), len(want.Positions))
		}
		for i := range got.Positions {
			g, w := got.Positions[i], want.Positions[i]
			if g.Verdict != w.Verdict || g.Func != w.Func || g.Param != w.Param || g.Depth != w.Depth {
				t.Fatalf("round %d position %d: got %+v want %+v", round, i, g, w)
			}
		}
		if len(got.Conflicts) != len(want.Conflicts) {
			t.Fatalf("round %d: %d conflicts, want %d", round, len(got.Conflicts), len(want.Conflicts))
		}
	}
}

func TestSessionSolveMatchesColdMono(t *testing.T) {
	testSessionMatchesCold(t, Options{})
}

func TestSessionSolveMatchesColdPoly(t *testing.T) {
	testSessionMatchesCold(t, Options{Poly: true})
}

func TestSessionSolveMatchesColdPolySimplify(t *testing.T) {
	testSessionMatchesCold(t, Options{Poly: true, Simplify: true})
}

func TestSessionSolveMatchesColdPolyRec(t *testing.T) {
	testSessionMatchesCold(t, Options{Poly: true, PolyRec: true})
}
