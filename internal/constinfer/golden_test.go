package constinfer

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfront"
)

var update = flag.Bool("update", false, "rewrite testdata/constraints.golden")

// runStaged runs the staged pipeline and returns the analysis plus its
// report.
func runStaged(t *testing.T, files []*cfront.File, opts Options) (*Analysis, *Report) {
	t.Helper()
	return runAnalysis(NewAnalysis(files, opts))
}

// runAnalysis runs a's stages and returns it with its report.
func runAnalysis(a *Analysis) (*Analysis, *Report) {
	a.Prepare()
	a.Constrain()
	return a, a.Classify(a.SolveSystem())
}

// snapshot renders everything observable about a run into comparable
// strings: system size, every constraint, every classified position,
// every suggestion, and every scheme.
func snapshot(a *Analysis, rep *Report) []string {
	var out []string
	out = append(out, fmt.Sprintf("vars=%d cons=%d funcs=%d sccs=%d", rep.Vars, rep.Constraints, rep.Functions, rep.SCCs))
	out = append(out, fmt.Sprintf("declared=%d inferred=%d total=%d conflicts=%d", rep.Declared, rep.Inferred, rep.Total, len(rep.Conflicts)))
	for i := 0; i < a.sys.NumConstraints(); i++ {
		c := a.sys.At(i)
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

// sharedStateSrc has bodies that create state every later body sees: an
// implicit global, an implicitly declared function, and a struct type
// first reached inside a body.
const sharedStateSrc = `
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

// TestConstraintsGolden pins the whole constraint system — every
// constraint with its reason, every verdict, suggestion and scheme — that
// the testdata corpus (analyzed as one program) and sharedStateSrc
// generate in mono and poly mode. Run with -update to
// rewrite testdata/constraints.golden.
func TestConstraintsGolden(t *testing.T) {
	corpus := loadCorpus(t)
	var names []string
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*cfront.File
	for _, name := range names {
		files = append(files, corpus[name])
	}
	shared, err := cfront.Parse("shared.c", sharedStateSrc)
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name  string
		files []*cfront.File
	}{
		{"testdata/*.c", files},
		{"shared.c", []*cfront.File{shared}},
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"mono", Options{}},
		{"poly", Options{Poly: true}},
	}

	var all strings.Builder
	sections := map[string]string{}
	for _, m := range modes {
		for _, p := range programs {
			header := fmt.Sprintf("== %s %s ==\n", m.name, p.name)
			a, rep := runStaged(t, p.files, m.opts)
			body := strings.Join(snapshot(a, rep), "\n") + "\n"
			sections[header] = body
			all.WriteString(header + body)
		}
	}
	const path = "testdata/constraints.golden"
	if *update {
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestConstraintsGolden -update to create it)", err)
	}
	want := splitSections(string(data))
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, p := range programs {
				header := fmt.Sprintf("== %s %s ==\n", m.name, p.name)
				got, exp := strings.Split(sections[header], "\n"), strings.Split(want[header], "\n")
				for i := range max(len(got), len(exp)) {
					if lineOr(got, i) != lineOr(exp, i) {
						t.Errorf("%s line %d:\n got:  %s\n want: %s", strings.TrimSpace(header), i+1, lineOr(got, i), lineOr(exp, i))
						break
					}
				}
			}
		})
	}
}

// TestConstrainDeterministic: the staged pipeline produces an identical
// constraint system, classification, and scheme set on every fresh run
// over the corpus, in mono, poly and the full-fragment reference.
func TestConstrainDeterministic(t *testing.T) {
	corpus := loadCorpus(t)
	var order []string
	for name := range corpus {
		order = append(order, name)
	}
	sort.Strings(order)
	var files []*cfront.File
	for _, name := range order {
		files = append(files, corpus[name])
	}

	modes := []func() *Analysis{
		func() *Analysis { return NewAnalysis(files, Options{}) },
		func() *Analysis { return NewAnalysis(files, Options{Poly: true}) },
		func() *Analysis { return newReference(files, Options{Poly: true}) },
	}
	for mi, mode := range modes {
		t.Run(fmt.Sprintf("mode%d", mi), func(t *testing.T) {
			want := snapshot(runAnalysis(mode()))
			for run := 1; run <= 3; run++ {
				got := snapshot(runAnalysis(mode()))
				for i := range max(len(got), len(want)) {
					if lineOr(got, i) != lineOr(want, i) {
						t.Fatalf("run %d diverges at line %d:\n first: %s\n run %d: %s",
							run, i, lineOr(want, i), run, lineOr(got, i))
					}
				}
			}
		})
	}
}

// TestConstrainSpeculationMisses: bodies that mutate shared state
// (implicit globals, implicit declarations, struct types first reached
// inside a body) produce the same system on every run, and the struct
// parameters that are only read stay constable.
func TestConstrainSpeculationMisses(t *testing.T) {
	f, err := cfront.Parse("spec.c", sharedStateSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Poly: true}} {
		a, rep := runStaged(t, []*cfront.File{f}, opts)
		want := snapshot(a, rep)
		got := snapshot(runStaged(t, []*cfront.File{f}, opts))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opts %+v: second run diverges from the first", opts)
		}
		if rep.Inferred != 2 || len(rep.Conflicts) != 0 {
			t.Errorf("opts %+v: inferred=%d conflicts=%d, want 2 and 0", opts, rep.Inferred, len(rep.Conflicts))
		}
		for _, fn := range []string{"touch_struct", "driver"} {
			if p := find(t, rep, fn, "l", 0); p.Verdict != Either {
				t.Errorf("opts %+v: %s l = %v, want either", opts, fn, p.Verdict)
			}
		}
	}
}

// splitSections splits golden text into its "== … ==" sections, keyed by
// header line (newline included).
func splitSections(s string) map[string]string {
	out := map[string]string{}
	header := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "== ") {
			header = line
			continue
		}
		out[header] += line
	}
	return out
}

func lineOr(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestStagedMatchesRun: Run (the composed pipeline) agrees with the
// manually staged calls.
func TestStagedMatchesRun(t *testing.T) {
	corpus := loadCorpus(t)
	for name, f := range corpus {
		opts := Options{Poly: true}
		repRun, err := Analyze([]*cfront.File{f}, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, repStaged := runStaged(t, []*cfront.File{f}, opts)
		if repRun.Inferred != repStaged.Inferred || repRun.Total != repStaged.Total ||
			repRun.Declared != repStaged.Declared || len(repRun.Conflicts) != len(repStaged.Conflicts) {
			t.Errorf("%s: Run vs staged mismatch: %+v", name, repRun)
		}
	}
}
