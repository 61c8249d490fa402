package constinfer

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cfront"
)

// runStaged runs the staged pipeline with an explicit worker count and
// returns the analysis plus its report.
func runStaged(t *testing.T, files []*cfront.File, opts Options, jobs int) (*Analysis, *Report) {
	t.Helper()
	a := NewAnalysis(files, opts)
	a.Prepare()
	if err := a.Constrain(jobs); err != nil {
		t.Fatal(err)
	}
	return a, a.Classify(a.SolveSystem())
}

// snapshot renders everything observable about a run into comparable
// strings: system size, every constraint, every classified position,
// every suggestion, and every scheme.
func snapshot(a *Analysis, rep *Report) []string {
	var out []string
	out = append(out, fmt.Sprintf("vars=%d cons=%d funcs=%d sccs=%d", rep.Vars, rep.Constraints, rep.Functions, rep.SCCs))
	out = append(out, fmt.Sprintf("declared=%d inferred=%d total=%d conflicts=%d", rep.Declared, rep.Inferred, rep.Total, len(rep.Conflicts)))
	for _, c := range a.sys.Constraints() {
		out = append(out, c.String()+" // "+c.Why.String())
	}
	for _, p := range rep.Positions {
		out = append(out, fmt.Sprintf("pos %s %s#%d depth=%d declared=%v %v", p.Func, p.Param, p.Index, p.Depth, p.Declared, p.Verdict))
	}
	for _, s := range rep.Suggested {
		out = append(out, fmt.Sprintf("suggest %s: %s -> %s (+%d)", s.Func, s.Old, s.New, s.Added))
	}
	var names []string
	for name, fi := range a.funcs {
		if fi.defined {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if s, ok := a.SchemeString(name); ok {
			out = append(out, "scheme "+s)
		}
	}
	return out
}

// TestConstrainDeterministic: the staged pipeline produces an identical
// constraint system, classification, and scheme set for any worker-pool
// size, over every corpus file and mode.
func TestConstrainDeterministic(t *testing.T) {
	corpus := loadCorpus(t)
	var files []*cfront.File
	var order []string
	for name := range corpus {
		order = append(order, name)
	}
	sort.Strings(order)
	for _, name := range order {
		files = append(files, corpus[name])
	}

	modes := []Options{
		{},
		{Poly: true},
		{Poly: true, Simplify: true},
	}
	for mi, opts := range modes {
		t.Run(fmt.Sprintf("mode%d", mi), func(t *testing.T) {
			aSerial, repSerial := runStaged(t, files, opts, 1)
			want := snapshot(aSerial, repSerial)
			for _, jobs := range []int{2, 4, 8} {
				aPar, repPar := runStaged(t, files, opts, jobs)
				got := snapshot(aPar, repPar)
				if !reflect.DeepEqual(want, got) {
					for i := range want {
						if i >= len(got) || want[i] != got[i] {
							t.Fatalf("jobs=%d diverges at line %d:\n serial: %s\n jobs=%d: %s",
								jobs, i, want[i], jobs, lineOr(got, i))
						}
					}
					t.Fatalf("jobs=%d: parallel run longer than serial (%d vs %d lines)", jobs, len(got), len(want))
				}
			}
		})
	}
}

func lineOr(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestConstrainSpeculationMisses: bodies that must mutate shared state
// (implicit globals, implicit declarations, struct types first reached
// inside a body) fall back to the sequential path and still match the
// one-worker run exactly.
func TestConstrainSpeculationMisses(t *testing.T) {
	src := `
struct late;
struct late { int x; char *p; };

int use_implicit(int n) {
	undeclared_counter = undeclared_counter + n;
	return undeclared_counter;
}

int call_implicit(int n) {
	return implicit_fn(n) + implicit_fn(n + 1);
}

int touch_struct(struct late *l) {
	return l->x;
}

int driver(struct late *l, int n) {
	return use_implicit(n) + call_implicit(n) + touch_struct(l);
}
`
	f, err := cfront.Parse("spec.c", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Poly: true, Simplify: true}} {
		aSerial, repSerial := runStaged(t, []*cfront.File{f}, opts, 1)
		want := snapshot(aSerial, repSerial)
		aPar, repPar := runStaged(t, []*cfront.File{f}, opts, 4)
		got := snapshot(aPar, repPar)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opts %+v: speculation-miss run diverges from serial", opts)
		}
	}
}

// TestStagedMatchesRun: Run (the composed pipeline) agrees with the
// manually staged calls.
func TestStagedMatchesRun(t *testing.T) {
	corpus := loadCorpus(t)
	for name, f := range corpus {
		opts := Options{Poly: true, Simplify: true}
		repRun, err := Analyze([]*cfront.File{f}, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, repStaged := runStaged(t, []*cfront.File{f}, opts, 4)
		if repRun.Inferred != repStaged.Inferred || repRun.Total != repStaged.Total ||
			repRun.Declared != repStaged.Declared || len(repRun.Conflicts) != len(repStaged.Conflicts) {
			t.Errorf("%s: Run vs staged mismatch: %+v", name, repRun)
		}
	}
}

// TestWorkerReuseMatchesFreshWorker: one worker reused across every body
// must return, for each body, the fragment a fresh worker returns. The
// program pins static locals (worker-owned pins) and aborts one body
// with a speculation miss while pinning, the state a reset must clear.
func TestWorkerReuseMatchesFreshWorker(t *testing.T) {
	src := `
struct late;
int counter(int *p) { static int n; n += *p; return n; }
int late_static(void) { static struct late *l; return l != 0; }
int plain(int *a, int *b) { return *a + *b; }
int reader(const char *s, char *d) { static char *last; last = d; return *s; }
`
	f, err := cfront.Parse("reuse.c", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Poly: true}} {
		// Constrain's signature sweep, without the merge that would
		// create the struct late_static's speculation misses on.
		a := NewAnalysis([]*cfront.File{f}, opts)
		a.Prepare()
		for _, scc := range a.sccs {
			for _, fi := range scc.funcs {
				fi.sig = a.tr.RValue(fi.decl.Type)
			}
		}
		if !a.newWorker().constrainBody(a.funcs["late_static"]).miss {
			t.Fatal("late_static did not miss: the test no longer covers a reset after a miss")
		}
		reused := a.newWorker()
		for _, fi := range a.defined {
			got := reused.constrainBody(fi)
			want := a.newWorker().constrainBody(fi)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opts %+v, %s: reused worker fragment %+v, fresh worker %+v", opts, fi.name, got, want)
			}
		}
	}
}
