package gofront_test

// End-to-end tests of the Go front end through the shared driver
// pipeline: golden translation verdicts for the core language shapes,
// the seeded taint examples, byte-determinism across worker counts,
// and a fuzzer over the parse→constrain path.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/driver"
	_ "repro/internal/gofront"
)

// runGo pushes in-memory Go sources through the full pipeline.
func runGo(t *testing.T, cfg driver.Config, files map[string]string) *driver.Result {
	t.Helper()
	cfg.Lang = "go"
	var srcs []driver.Source
	for name, text := range files {
		srcs = append(srcs, driver.TextSource(name, text))
	}
	res, err := driver.Run(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// positionDump renders a report's positions as one line each, with the
// cwd-dependent package-path prefix stripped so the golden strings are
// stable.
func positionDump(res *driver.Result) []string {
	var out []string
	for _, p := range res.Report.Positions {
		fn := p.Func[strings.LastIndex(p.Func, "/")+1:]
		if i := strings.Index(fn, "."); i >= 0 {
			fn = fn[i+1:]
		}
		out = append(out, fmt.Sprintf("%s %s %d %d %s", fn, p.Param, p.Index, p.Depth, p.Verdict))
	}
	return out
}

// TestGoldenTranslation pins the θ translation of the core Go shapes:
// each snippet's positions must classify exactly as listed. A position
// is "not-const" when some path writes through the reference, "either"
// when no constraint forces a write — the paper's Table 2 verdicts,
// computed for Go.
func TestGoldenTranslation(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"pointer-read-write", `package p
func get(p *int) int { return *p }
func put(p *int) { *p = 1 }
`, []string{
			"get p 0 0 either",
			"put p 0 0 not-const",
		}},
		{"call-propagation", `package p
func put(p *int) { *p = 1 }
func wrap(p *int) { put(p) }
func reads(p *int) int { return *p + *p }
`, []string{
			"put p 0 0 not-const",
			"wrap p 0 0 not-const",
			"reads p 0 0 either",
		}},
		{"method-receiver", `package p
type Buf struct{ n int }
func (b *Buf) Inc() { b.n++ }
func (b *Buf) Len() int { return b.n }
`, []string{
			"Buf.Inc b 0 0 not-const",
			"Buf.Len b 0 0 either",
		}},
		{"slice-and-append", `package p
func fill(s []int) { s[0] = 1 }
func sum(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
func grow(s []int) []int { return append(s, 1) }
`, []string{
			"fill s 0 0 not-const",
			"sum s 0 0 either",
			"grow s 0 0 not-const",
			"grow  -1 0 either",
		}},
		{"map", `package p
func index(m map[string]int, k string) int { return m[k] }
func store(m map[string]int, k string) { m[k] = 1 }
`, []string{
			"index m 0 0 either",
			"store m 0 0 not-const",
		}},
		{"struct-fields", `package p
type pair struct{ a, b *int }
func mutate(x *pair) { *x.a = 1 }
func observe(y *pair) int { return *y.b }
func assignField(z *pair) { z.a = nil }
`, []string{
			// Writing *x.a goes through the field's own reference, not
			// x's (a const struct pointer still permits it, as in C);
			// assigning the field itself writes through z.
			"mutate x 0 0 either",
			"observe y 0 0 either",
			"assignField z 0 0 not-const",
		}},
		{"double-pointer", `package p
func deep(pp **int) { **pp = 1 }
`, []string{
			"deep pp 0 0 either",
			"deep pp 0 1 not-const",
		}},
		{"type-switch-binding", `package p
func set(p *int) {
	var x any = p
	switch v := x.(type) {
	case *int:
		*v = 1
	}
}
func peek(p *int) int {
	var x any = p
	switch v := x.(type) {
	case *int:
		return *v
	}
	return 0
}
`, []string{
			// Boxing and the clause binding keep the top-level
			// qualifier, so a write through the clause's variable
			// writes through p.
			"set p 0 0 not-const",
			"peek p 0 0 either",
		}},
		{"type-parameter-call", `package p
func apply[F func(*int)](f F, p *int) { f(p) }
func read[T any](x T, p *int) int { return *p }
`, []string{
			// A value of type-parameter type is an opaque leaf, so
			// calling it is an untracked call: the conservative rule
			// writes through every argument.
			"apply p 1 0 not-const",
			"read p 1 0 either",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runGo(t, driver.Config{}, map[string]string{"p.go": c.src})
			if res.HasErrors() {
				t.Fatalf("unexpected errors: %v", res.Diagnostics)
			}
			got := positionDump(res)
			if len(got) != len(c.want) {
				t.Fatalf("positions = %q, want %q", got, c.want)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("position %d = %q, want %q", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestGoConstConflict pins that writing through a position another
// constraint forces const is a solver conflict with a flow trace, for
// Go sources.
func TestGoConstConflict(t *testing.T) {
	// No Go spelling declares const, so force a conflict through taint
	// instead: the dirty example below covers the conflict path. Here,
	// pin that a clean corpus solves with zero conflicts.
	res := runGo(t, driver.Config{}, map[string]string{"p.go": `package p
func id(p *int) *int { return p }
`})
	if res.HasErrors() {
		t.Fatalf("clean corpus reported errors: %v", res.Diagnostics)
	}
	if len(res.Report.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Report.Conflicts)
	}
}

// TestGoTaintExamples runs the seeded examples/go-taint corpus: the
// dirty twin must report both injection flows with multi-hop traces,
// the clean twin none.
func TestGoTaintExamples(t *testing.T) {
	cfg := driver.Config{
		Lang:     "go",
		Analyses: []string{"taint"},
		Preludes: []driver.PreludeFile{loadPrelude(t, "../../examples/go-taint/go.q")},
	}

	dirty, err := driver.Run(cfg, []driver.Source{{Path: "../../examples/go-taint/dirty"}})
	if err != nil {
		t.Fatal(err)
	}
	var conflicts []string
	for _, d := range dirty.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts = append(conflicts, d.String())
		}
	}
	if len(conflicts) != 2 {
		t.Fatalf("dirty twin: got %d conflicts, want 2:\n%s", len(conflicts), strings.Join(conflicts, "\n"))
	}
	all := strings.Join(conflicts, "\n")
	for _, want := range []string{
		`argument 1 of "sql.DB.Query" must be untainted`,
		`argument 3 of "exec.Command" must be untainted`,
		`result of "http.Request.FormValue" is tainted (prelude`,
		"flow:",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("dirty conflicts missing %q:\n%s", want, all)
		}
	}

	clean, err := driver.Run(cfg, []driver.Source{{Path: "../../examples/go-taint/clean"}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.HasErrors() {
		t.Fatalf("clean twin reported conflicts: %v", clean.Diagnostics)
	}
}

func loadPrelude(t *testing.T, path string) driver.PreludeFile {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return driver.PreludeFile{Path: path, Text: string(text)}
}

// TestGoJobsDeterminism pins byte-identical output across fresh runs for
// every driver.Config.Jobs value, which has no effect: the Go engine
// generates constraints sequentially in source order.
func TestGoJobsDeterminism(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a
type node struct{ next *node; v int }
func sum(n *node) int {
	t := 0
	for n != nil {
		t += n.v
		n = n.next
	}
	return t
}
func zero(n *node) {
	for n != nil {
		n.v = 0
		n = n.next
	}
}
`,
		"b/b.go": `package b
func reverse(s []byte) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
func count(s []byte, c byte) int {
	n := 0
	for _, b := range s {
		if b == c {
			n++
		}
	}
	return n
}
`,
	}
	var base []byte
	for _, jobs := range []int{1, 2, 8} {
		res := runGo(t, driver.Config{Jobs: jobs}, files)
		if res.HasErrors() {
			t.Fatalf("jobs=%d: errors: %v", jobs, res.Diagnostics)
		}
		buf, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = buf
			continue
		}
		if string(buf) != string(base) {
			t.Errorf("jobs=%d report differs:\n%s\nvs jobs=1:\n%s", jobs, buf, base)
		}
	}
}

// FuzzGoFront feeds arbitrary source text through parse, type-check,
// and constraint generation: the front end must diagnose, never panic.
func FuzzGoFront(f *testing.F) {
	f.Add("package p\nfunc f(p *int) { *p = 1 }\n")
	f.Add("package p\nfunc g(s []int) int { return s[0] }\n")
	f.Add("package p\ntype T struct{ x *T }\nfunc h(t *T) *T { return t.x }\n")
	f.Add("package p\nfunc v(xs ...string) string { return xs[0] }\nfunc c() string { return v(\"a\", \"b\") }\n")
	f.Add("package p\nimport \"strings\"\nfunc u(s string) string { return strings.ToUpper(s) }\n")
	f.Add("package p\nfunc bad( {")
	f.Add("package p\nvar x undefinedIdent\n")
	f.Add("package p\nfunc cl() func() int { n := 0; return func() int { n++; return n } }\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		res, err := driver.Run(driver.Config{Lang: "go"},
			[]driver.Source{driver.TextSource("fuzz.go", src)})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
	})
}
