package constinfer

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
)

// TestMetamorphicRenameReorder checks that verdicts do not depend on
// what functions and variables are called or on where functions are
// defined. It renames the defined functions, their parameters and
// their locals by one bijection (library functions, globals, typedefs
// and enum constants keep their names) and permutes each file's
// function definitions, both on the parsed tree, then requires the same
// verdict and declared flag at every renamed (function, parameter,
// index, depth) position and the same Table 2 counts, in mono and poly
// mode. The renaming reorders the sorted function list, and with it the
// order in which the dependence graph's components are found and
// constrained.
func TestMetamorphicRenameReorder(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(paths))
	}
	testdata := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		testdata[filepath.Base(path)] = string(data)
	}
	programs := []struct {
		name    string
		sources map[string]string
	}{
		{"testdata", testdata},
		{"parallel-5k-seed3", map[string]string{
			"synth.c": benchgen.Generate(benchgen.ParallelCorpus(5_000, 3)),
		}},
	}
	parseAll := func(t *testing.T, sources map[string]string) []*cfront.File {
		var files []*cfront.File
		for _, name := range slices.Sorted(maps.Keys(sources)) {
			files = append(files, mustParse(t, name, sources[name]))
		}
		return files
	}
	for _, prog := range programs {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"mono", Options{}}, {"poly", Options{Poly: true}}} {
			t.Run(prog.name+"/"+mode.name, func(t *testing.T) {
				before, err := Analyze(parseAll(t, prog.sources), mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				edited := parseAll(t, prog.sources)
				rng := rand.New(rand.NewSource(1))
				rename := renameLocals(t, edited, rng)
				for _, f := range edited {
					permuteDefinitions(f, rng)
				}
				after, err := Analyze(edited, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				compareRenamed(t, before, after, rename)
			})
		}
	}
}

// positionKey names one interesting position independently of source
// locations.
type positionKey struct {
	fn, param    string
	index, depth int
}

type positionVerdict struct {
	verdict  Verdict
	declared bool
}

// compareRenamed requires after to be before with every name mapped
// through rename.
func compareRenamed(t *testing.T, before, after *Report, rename map[string]string) {
	t.Helper()
	renamed := func(n string) string {
		if m, ok := rename[n]; ok {
			return m
		}
		return n
	}
	want := map[positionKey]positionVerdict{}
	for _, p := range before.Positions {
		k := positionKey{renamed(p.Func), renamed(p.Param), p.Index, p.Depth}
		want[k] = positionVerdict{p.Verdict, p.Declared}
	}
	got := map[positionKey]positionVerdict{}
	for _, p := range after.Positions {
		got[positionKey{p.Func, p.Param, p.Index, p.Depth}] = positionVerdict{p.Verdict, p.Declared}
	}
	if len(got) != len(want) || len(want) != len(before.Positions) {
		t.Errorf("%d positions after the edit, %d before (%d distinct)", len(got), len(before.Positions), len(want))
	}
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			if bad++; bad <= 5 {
				t.Errorf("%s/%s (index %d) depth %d: %v declared=%v after the edit, %v declared=%v before (present: %v)",
					k.fn, k.param, k.index, k.depth, g.verdict, g.declared, w.verdict, w.declared, ok)
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d positions differ in all", bad)
	}
	type counts struct{ declared, inferred, total, functions, sccs, conflicts int }
	cb := counts{before.Declared, before.Inferred, before.Total, before.Functions, before.SCCs, len(before.Conflicts)}
	ca := counts{after.Declared, after.Inferred, after.Total, after.Functions, after.SCCs, len(after.Conflicts)}
	if ca != cb {
		t.Errorf("counts (declared, inferred, total, functions, SCCs, conflicts) %+v after the edit, %+v before", ca, cb)
	}
}

// renameLocals renames, in place, every defined function, parameter of
// a definition and local variable of files by one bijection onto fresh
// names, and returns it. A name that is also a global, a library
// function, a typedef or an enum constant keeps its name everywhere, so
// the renaming respects every scope. The fresh names are assigned in a
// random order, so their sorted order is not the old one.
func renameLocals(t *testing.T, files []*cfront.File, rng *rand.Rand) map[string]string {
	t.Helper()
	keep := map[string]bool{}
	candidates := map[string]bool{}
	var all []string // every name in the program, to check freshness
	defined := map[string]bool{}
	for _, f := range files {
		for name := range f.EnumConsts {
			keep[name] = true
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*cfront.FuncDecl); ok && fd.Body != nil {
				defined[fd.Name] = true
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *cfront.FuncDecl:
				all = append(all, d.Name)
				if !defined[d.Name] {
					keep[d.Name] = true
					continue
				}
				candidates[d.Name] = true
				if d.Body == nil {
					continue
				}
				for _, p := range d.Type.Params() {
					candidates[p.Name] = true
				}
				walkBody(d.Body, func(id *cfront.Ident) { all = append(all, id.Name) },
					func(v *cfront.VarDecl) { candidates[v.Name] = true })
			case *cfront.VarDecl:
				keep[d.Name] = true
			case *cfront.TypedefDecl:
				keep[d.Name] = true
			}
		}
	}
	var names []string
	for n := range candidates {
		if n != "" && !keep[n] {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	order := rng.Perm(len(names))
	rename := make(map[string]string, len(names))
	for i, n := range names {
		rename[n] = fmt.Sprintf("mm%d", order[i])
	}
	all = append(append(all, slices.Collect(maps.Keys(keep))...), names...)
	for _, n := range all {
		if strings.HasPrefix(n, "mm") {
			t.Fatalf("the program already names %q; pick another prefix", n)
		}
	}
	to := func(n string) string {
		if m, ok := rename[n]; ok {
			return m
		}
		return n
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*cfront.FuncDecl)
			if !ok {
				continue
			}
			fd.Name = to(fd.Name)
			if fd.Body == nil {
				continue
			}
			params := fd.Type.Params()
			for i := range params {
				params[i].Name = to(params[i].Name)
			}
			walkBody(fd.Body, func(id *cfront.Ident) { id.Name = to(id.Name) },
				func(v *cfront.VarDecl) { v.Name = to(v.Name) })
		}
	}
	return rename
}

// permuteDefinitions shuffles the function definitions of f among the
// places they hold in f.Decls; every other declaration stays put.
func permuteDefinitions(f *cfront.File, rng *rand.Rand) {
	var at []int
	var defs []cfront.Decl
	for i, d := range f.Decls {
		if fd, ok := d.(*cfront.FuncDecl); ok && fd.Body != nil {
			at = append(at, i)
			defs = append(defs, d)
		}
	}
	rng.Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
	for k, i := range at {
		f.Decls[i] = defs[k]
	}
}

// walkBody calls ident on every identifier expression of a body and
// local on every variable it declares.
func walkBody(s cfront.Stmt, ident func(*cfront.Ident), local func(*cfront.VarDecl)) {
	var expr func(e cfront.Expr)
	expr = func(e cfront.Expr) {
		switch e := e.(type) {
		case *cfront.Ident:
			ident(e)
		case *cfront.Unary:
			expr(e.X)
		case *cfront.Postfix:
			expr(e.X)
		case *cfront.Binary:
			expr(e.L)
			expr(e.R)
		case *cfront.AssignExpr:
			expr(e.L)
			expr(e.R)
		case *cfront.Cond:
			expr(e.C)
			expr(e.T)
			expr(e.F)
		case *cfront.Call:
			expr(e.Fn)
			for _, x := range e.Args {
				expr(x)
			}
		case *cfront.Index:
			expr(e.X)
			expr(e.I)
		case *cfront.Member:
			expr(e.X)
		case *cfront.Cast:
			expr(e.X)
		case *cfront.SizeofExpr:
			expr(e.X)
		case *cfront.Comma:
			expr(e.L)
			expr(e.R)
		case *cfront.InitList:
			for _, x := range e.Items {
				expr(x)
			}
		}
	}
	var stmt func(s cfront.Stmt)
	stmt = func(s cfront.Stmt) {
		switch s := s.(type) {
		case *cfront.Block:
			for _, it := range s.Items {
				stmt(it)
			}
		case *cfront.DeclStmt:
			for _, d := range s.Decls {
				if v, ok := d.(*cfront.VarDecl); ok {
					local(v)
					expr(v.Init)
				}
			}
		case *cfront.ExprStmt:
			expr(s.X)
		case *cfront.IfStmt:
			expr(s.Cond)
			stmt(s.Then)
			stmt(s.Else)
		case *cfront.WhileStmt:
			expr(s.Cond)
			stmt(s.Body)
		case *cfront.DoWhileStmt:
			stmt(s.Body)
			expr(s.Cond)
		case *cfront.ForStmt:
			stmt(s.Init)
			expr(s.Cond)
			expr(s.Post)
			stmt(s.Body)
		case *cfront.ReturnStmt:
			expr(s.Value)
		case *cfront.LabelStmt:
			stmt(s.Stmt)
		case *cfront.SwitchStmt:
			expr(s.Tag)
			stmt(s.Body)
		case *cfront.CaseStmt:
			expr(s.Value)
			stmt(s.Stmt)
		}
	}
	stmt(s)
}
