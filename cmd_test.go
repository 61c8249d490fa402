package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCommands smoke-tests every binary end to end via `go run`. These
// are the integration points users touch first; each invocation checks
// both exit status and a load-bearing fragment of the output.
func TestCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests in -short mode")
	}
	dir := t.TempDir()
	cFile := filepath.Join(dir, "demo.c")
	if err := os.WriteFile(cFile, []byte(`
int mylen(char *s) {
    int n = 0;
    while (s[n]) n++;
    return n;
}
void set(char *p) { *p = 0; }
int partial(int c) {
    int x;
    if (c) x = 1;
    return x;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"cqual", []string{"run", "./cmd/cqual", "-v", "-suggest", cFile},
			[]string{"not-const", "int mylen(const char *s)", "inferrable const: 1"}},
		{"cqual-poly-schemes", []string{"run", "./cmd/cqual", "-poly", "-schemes", cFile},
			[]string{"∀", "⊑"}},
		{"cqual-uninit", []string{"run", "./cmd/cqual", "-uninit", cFile},
			[]string{`variable "x" may be used uninitialized`}},
		{"qlambda-expr", []string{"run", "./cmd/qlambda", "-spec", "nonzero", "-eval", "-e", "100 / (@nonzero (3 - 1))"},
			[]string{"type: int", "value: nonzero 50"}},
		{"qlambda-lattice", []string{"run", "./cmd/qlambda", "-spec", "figure2", "-lattice"},
			[]string{"rank 3: const dynamic", "rank 0: nonzero"}},
		{"benchgen", []string{"run", "./cmd/benchgen", "-out", dir, "-only", "woman-3.0a"},
			[]string{"woman-3.0a.c"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", c.args, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}

	// Verbose-mode marker: "+" flags the consts the programmer can add.
	out, err := exec.Command("go", "run", "./cmd/cqual", "-v", cFile).CombinedOutput()
	if err != nil {
		t.Fatalf("cqual -v: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "+ mylen") {
		t.Errorf("no addable-const marker:\n%s", out)
	}

	// Conflicts give exit status 1.
	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(bad, []byte("void f(const char *s) { *s = 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/cqual", bad)
	outB, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("cqual on a const violation exited 0:\n%s", outB)
	}
	if !strings.Contains(string(outB), "conflict") {
		t.Errorf("conflict not reported:\n%s", outB)
	}

	// qlambda rejects qualifier conflicts with exit 1.
	cmd = exec.Command("go", "run", "./cmd/qlambda", "-spec", "const", "-e", "(@const ref 1) := 2")
	outB, err = cmd.CombinedOutput()
	if err == nil {
		t.Errorf("qlambda on a const violation exited 0:\n%s", outB)
	}

	// The examples all run to completion. The lambda-language examples
	// print their committed expected.txt up to a bijective renaming of
	// κ labels.
	lambdaExamples := map[string]bool{"quickstart": true, "taint": true, "bindingtime": true, "nonzero": true, "flowcheck": true}
	for _, ex := range []string{"quickstart", "constcheck", "taint", "bindingtime", "nonzero", "flowcheck"} {
		ex := ex
		t.Run("example-"+ex, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+ex).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", ex)
			}
			if !lambdaExamples[ex] {
				return
			}
			path := "examples/" + ex + "/expected.txt"
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := kappaEqual(string(out), string(golden)); err != nil {
				t.Errorf("output drifted from %s up to κ renaming: %v\n--- got ---\n%s--- want ---\n%s", path, err, out, golden)
			}
		})
	}
}

// buildCqual compiles the cqual binary once for the golden tests.
func buildCqual(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cqual")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/cqual").CombinedOutput()
	if err != nil {
		t.Fatalf("build cqual: %v\n%s", err, out)
	}
	return bin
}

// TestCqualGoldenDeterminism: cqual output over the whole constinfer
// testdata corpus is byte-identical between GOMAXPROCS=1 and GOMAXPROCS=8,
// in every mode. This is the end-to-end determinism guarantee of the
// concurrent parse stage.
func TestCqualGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	corpus, err := filepath.Glob("internal/constinfer/testdata/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(corpus))
	}
	bin := buildCqual(t)

	modes := [][]string{
		{"-v", "-suggest"},
		{"-poly", "-v", "-schemes", "-suggest"},
		{"-poly", "-json"},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(strings.Join(mode, ""), func(t *testing.T) {
			args := append(append([]string(nil), mode...), corpus...)

			serial := exec.Command(bin, args...)
			serial.Env = append(os.Environ(), "GOMAXPROCS=1")
			serialOut, err := serial.CombinedOutput()
			if err != nil {
				t.Fatalf("GOMAXPROCS=1: %v\n%s", err, serialOut)
			}

			parallel := exec.Command(bin, args...)
			parallel.Env = append(os.Environ(), "GOMAXPROCS=8")
			parallelOut, err := parallel.CombinedOutput()
			if err != nil {
				t.Fatalf("GOMAXPROCS=8: %v\n%s", err, parallelOut)
			}

			serialS, parallelS := string(serialOut), string(parallelOut)
			if strings.Contains(strings.Join(mode, " "), "json") {
				// Timings are wall-clock and legitimately differ.
				serialS = stripTimings(serialS)
				parallelS = stripTimings(parallelS)
			}
			if serialS != parallelS {
				t.Errorf("output differs between serial and parallel runs\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialS, parallelS)
			}
		})
	}
}

// TestCqualSchemesGolden pins qualifier-variable numbering and scheme
// simplification: `-poly -schemes` over the constinfer testdata corpus
// must match the committed golden byte for byte; constraints.golden
// pins the poly constraint system the schemes are instantiated into.
func TestCqualSchemesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	corpus, err := filepath.Glob("internal/constinfer/testdata/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(corpus))
	}
	bin := buildCqual(t)
	const golden = "internal/constinfer/testdata/schemes.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-poly", "-schemes"}, corpus...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("cqual %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("cqual -poly -schemes drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}
}

// stripTimings removes the timings block from JSON output.
func stripTimings(s string) string {
	i := strings.Index(s, `"timings"`)
	if i < 0 {
		return s
	}
	end := strings.Index(s[i:], "}")
	if end < 0 {
		return s
	}
	return s[:i] + s[i+end+1:]
}

// TestCqualTaint: the taint analysis over the seeded examples/taint-c
// corpus reports every planted source→sink violation with its multi-hop
// flow trace; -analyses lists the registry and an unknown -analysis is a
// usage error.
func TestCqualTaint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	corpus, err := filepath.Glob("examples/taint-c/*.c")
	if err != nil || len(corpus) != 3 {
		t.Fatalf("taint corpus missing: %v (%d files)", err, len(corpus))
	}
	args := append([]string{"-analysis", "taint", "-prelude", "examples/taint-c/taint.q"}, corpus...)

	outb, err := exec.Command(bin, args...).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on planted violations, got %v\n%s", err, outb)
	}
	out := string(outb)
	if !strings.Contains(out, "4 qualifier conflict(s):") {
		t.Errorf("planted violations not all found:\n%s", out)
	}
	// Every planted sink is reported, and the longest flow (network.c:
	// getenv → local → helper param → return → local → system) keeps its
	// full hop sequence.
	for _, want := range []string{
		`argument 1 of "printf" must be untainted`,
		`argument 1 of "system" must be untainted`,
		`result of "getenv" is tainted (prelude)`,
		`argument 1 of "fgets" is tainted`,
		"(function argument)",
		"(returned value)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "flow:"); got < 8 {
		t.Errorf("only %d flow hops rendered, want the full multi-hop traces:\n%s", got, out)
	}

	// The registry listing names every built-in analysis with its
	// vocabulary and lattice shape.
	list, err := exec.Command(bin, "-analyses").CombinedOutput()
	if err != nil {
		t.Fatalf("cqual -analyses: %v\n%s", err, list)
	}
	for _, want := range []string{
		"const", "taint", "unique", "fdstate",
		"tainted (seed)", "untainted (sink)", "negative",
		"borrowed (borrow)", "closed (seed)",
		"untainted ⊑ tainted", "unique ⊑ shared", "open ⊑ closed", "¬const ⊑ const",
	} {
		if !strings.Contains(string(list), want) {
			t.Errorf("-analyses listing missing %q:\n%s", want, list)
		}
	}

	// Unknown analyses are usage errors naming the registry.
	out2, err := exec.Command(bin, "-analysis", "leak", corpus[0]).CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("cqual -analysis leak: want exit 2, got %v\n%s", err, out2)
	}
	if !strings.Contains(string(out2), `unknown analysis "leak" (registered: const, fdstate, taint, unique)`) {
		t.Errorf("unknown-analysis error not helpful:\n%s", out2)
	}
}

// TestCqualTaintPolyGolden pins the polymorphic const+taint JSON report
// over examples/taint-c, timings aside, including the qualifier
// variables its flow notes name.
func TestCqualTaintPolyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	corpus, err := filepath.Glob("examples/taint-c/*.c")
	if err != nil || len(corpus) != 3 {
		t.Fatalf("taint corpus missing: %v (%d files)", err, len(corpus))
	}
	args := append([]string{"-json", "-poly", "-analysis", "const,taint", "-prelude", "examples/taint-c/taint.q"}, corpus...)
	out, err := exec.Command(buildCqual(t), args...).Output()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on planted violations, got %v\n%s", err, out)
	}
	const path = "examples/taint-c/expected_poly.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := stripTimings(string(out)); got != string(want) {
		t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestCqualGoTaint: the Go taint examples against their committed
// golden flow-trace output — the dirty twin reports both injection
// flows, the clean twin passes.
func TestCqualGoTaint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	args := []string{"-lang", "go", "-analysis", "taint", "-prelude", "examples/go-taint/go.q"}

	run := func(pkg string, wantExit int) string {
		t.Helper()
		out, err := exec.Command(bin, append(args, pkg)...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("cqual %s: %v\n%s", pkg, err, out)
		}
		if exit != wantExit {
			t.Fatalf("cqual %s: exit %d, want %d\n%s", pkg, exit, wantExit, out)
		}
		return string(out)
	}

	dirty := run("./examples/go-taint/dirty", 1)
	golden, err := os.ReadFile("examples/go-taint/expected_dirty.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := kappaEqual(dirty, string(golden)); err != nil {
		t.Errorf("dirty output drifted from examples/go-taint/expected_dirty.txt up to κ renaming: %v\n--- got ---\n%s--- want ---\n%s", err, dirty, golden)
	}

	clean := run("./examples/go-taint/clean", 0)
	if !strings.Contains(clean, "0 conflict") && strings.Contains(clean, "conflict(s):") {
		t.Errorf("clean twin reported conflicts:\n%s", clean)
	}
}

// TestCqualGoSelf: the flagship workload — the checker analyzing one of
// its own packages end to end with non-trivial statistics, its standard
// library loaded from export data.
func TestCqualGoSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	out, err := exec.Command(bin, "-lang", "go", "-stats", "./internal/qual").CombinedOutput()
	if err != nil {
		t.Fatalf("self-analysis failed: %v\n%s", err, out)
	}
	got := string(out)
	if !strings.Contains(got, "functions") || strings.Contains(got, " 0 functions") {
		t.Errorf("self-analysis stats empty or missing:\n%s", got)
	}
	if !strings.Contains(got, "stdlib importer: export data, ") {
		t.Errorf("-stats does not name the export-data importer:\n%s", got)
	}
}

// TestCqualStatsGC: -stats ends with one line on the garbage
// collector's cost, from runtime/metrics.
func TestCqualStatsGC(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	corpus, err := filepath.Glob("internal/constinfer/testdata/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(corpus))
	}
	bin := buildCqual(t)
	cmd := exec.Command(bin, append([]string{"-stats"}, corpus...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cqual -stats: %v\n%s", err, stderr.String())
	}
	line := regexp.MustCompile(`(?m)^gc: \d+ cycles, \S+ total pause, \d+\.\d% of process CPU$`)
	if !line.MatchString(stderr.String()) {
		t.Errorf("-stats prints no gc line:\n%s", stderr.String())
	}
}

// TestCqualJSON: the -json flag emits a well-formed report.
func TestCqualJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	dir := t.TempDir()
	cFile := filepath.Join(dir, "demo.c")
	if err := os.WriteFile(cFile, []byte("int mylen(char *s) { return *s; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-json", "-poly", cFile).CombinedOutput()
	if err != nil {
		t.Fatalf("cqual -json: %v\n%s", err, out)
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"files", "mode", "summary", "positions", "diagnostics", "timings"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON output missing %q:\n%s", key, out)
		}
	}
	if doc["mode"] != "polymorphic" {
		t.Errorf("mode = %v", doc["mode"])
	}
}

// TestCqualJobsValidation: -jobs, -polyrec and -simplify are retired
// from cqual and cquald (and -simplify from paperbench), and so are
// cquald's observability knobs (-slo, -slo-target, -slow-request,
// -trace-entries, -journal-entries, -retain-slowest, -retain-sample)
// and its watch mode with its run-mode flags (-watch, -poly, ...), so
// passing any of them is an unknown-flag usage error, exit 2. -schemes
// without -poly is a usage error too, for C and Go alike, and so is
// cqual -watch with -serve.
func TestCqualJobsValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	dir := t.TempDir()
	cFile := filepath.Join(dir, "ok.c")
	if err := os.WriteFile(cFile, []byte("int f(int x) { return x; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	goFile := filepath.Join(dir, "ok.go")
	if err := os.WriteFile(goFile, []byte("package ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cqual, cquald := buildCqual(t), buildCquald(t)
	paperbench := filepath.Join(t.TempDir(), "paperbench")
	if out, err := exec.Command("go", "build", "-o", paperbench, "./cmd/paperbench").CombinedOutput(); err != nil {
		t.Fatalf("build paperbench: %v\n%s", err, out)
	}
	const unknown = "flag provided but not defined: "
	for _, tc := range []struct {
		cmd  *exec.Cmd
		want string
	}{
		{exec.Command(cqual, "-jobs", "2", cFile), unknown + "-jobs"},
		{exec.Command(cquald, "-jobs", "2"), unknown + "-jobs"},
		{exec.Command(cqual, "-polyrec", cFile), unknown + "-polyrec"},
		{exec.Command(cquald, "-watch", dir), unknown + "-watch"},
		{exec.Command(cqual, "-simplify", cFile), unknown + "-simplify"},
		{exec.Command(cqual, "-poly", "-simplify", cFile), unknown + "-simplify"},
		{exec.Command(cquald, "-poly"), unknown + "-poly"},
		{exec.Command(paperbench, "-simplify"), unknown + "-simplify"},
		{exec.Command(cquald, "-slo", "analyze=1s"), unknown + "-slo"},
		{exec.Command(cquald, "-slo-target", "0.9"), unknown + "-slo-target"},
		{exec.Command(cquald, "-slow-request", "1s"), unknown + "-slow-request"},
		{exec.Command(cquald, "-trace-entries", "4"), unknown + "-trace-entries"},
		{exec.Command(cquald, "-journal-entries", "4"), unknown + "-journal-entries"},
		{exec.Command(cquald, "-retain-slowest", "1"), unknown + "-retain-slowest"},
		{exec.Command(cquald, "-retain-sample", "1"), unknown + "-retain-sample"},
		{exec.Command(cqual, "-schemes", cFile), "-schemes only applies with -poly"},
		{exec.Command(cqual, "-lang", "go", "-schemes", goFile), "-schemes only applies with -poly"},
		{exec.Command(cqual, "-watch", "-serve", "http://127.0.0.1:1", dir), "-watch runs the local pipeline and cannot be combined with -serve"},
	} {
		name := filepath.Base(tc.cmd.Path) + " " + strings.Join(tc.cmd.Args[1:], " ")
		out, err := tc.cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v\n%s", name, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", name, tc.want, out)
		}
		if strings.Contains(tc.want, "-schemes") && strings.Contains(string(out), "-simplify") {
			t.Errorf("%s: names a flag the command line lacks:\n%s", name, out)
		}
	}
}

// TestCqualWatch drives the binary: the first watch run prints its
// header and then exactly what the one-shot command prints for the same
// flags and files, and SIGTERM ends the watch with its summary, exit 0.
func TestCqualWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	flags := []string{"-analysis", "taint", "-prelude", "examples/taint-c/taint.q"}
	files, err := filepath.Glob("examples/taint-c/*.c")
	if err != nil || len(files) != 3 {
		t.Fatalf("taint-c sources: %v %v", files, err)
	}
	oneShot, err := exec.Command(bin, append(flags, files...)...).Output()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("one-shot run: want exit 1 (conflicts), got %v", err)
	}

	watch := exec.Command(bin, append(flags, "-watch", "examples/taint-c")...)
	var stdout bytes.Buffer
	watch.Stdout = &stdout
	stderr, err := watch.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := watch.Start(); err != nil {
		t.Fatal(err)
	}
	// The run's record follows its output; a hung watch is killed.
	timer := time.AfterFunc(time.Minute, func() { watch.Process.Kill() })
	defer timer.Stop()
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "event=watch_run") {
	}
	watch.Process.Signal(syscall.SIGTERM)
	io.Copy(io.Discard, stderr)
	if err := watch.Wait(); err != nil {
		t.Fatalf("watch: want exit 0 on SIGTERM, got %v\n%s", err, stdout.String())
	}
	want := "cqual: watching examples/taint-c every 500ms (lang c, mode monomorphic)\n" +
		"watch: run 1: 3 file(s)\n" + string(oneShot)
	got := stdout.String()
	if !strings.HasPrefix(got, want) {
		t.Fatalf("watch output does not start with the one-shot output:\n%s\n--- want prefix ---\n%s", got, want)
	}
	if summary := regexp.MustCompile(`^cqual: watch: \d+ poll\(s\), 1 re-analysis\(es\), 0 front-end failure\(s\)\n$`); !summary.MatchString(got[len(want):]) {
		t.Errorf("watch summary: %q", got[len(want):])
	}
}

// TestCqualdHelpCacheBounds: the daemon maps a zero result-cache bound
// to its default, never to "unbounded", and -h must say so.
func TestCqualdHelpCacheBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	out, _ := exec.Command(buildCquald(t), "-h").CombinedOutput()
	help := string(out)
	if strings.Contains(help, "unbounded") {
		t.Errorf("cquald -h promises an unbounded setting:\n%s", help)
	}
	for _, want := range []string{"max entries (0 = 1024)", "max stored report bytes (0 = 256 MiB)"} {
		if !strings.Contains(help, want) {
			t.Errorf("cquald -h lacks %q:\n%s", want, help)
		}
	}
}

// buildCquald compiles the daemon binary.
func buildCquald(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cquald")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/cquald").CombinedOutput()
	if err != nil {
		t.Fatalf("build cquald: %v\n%s", err, out)
	}
	return bin
}

// TestCqualdDaemonSmoke is the daemon end-to-end check: start cquald on a
// free port, analyze the corpus through `cqual -serve`, verify the report
// matches a local `cqual -json` run modulo timings, confirm the repeat
// request hits the result cache, and shut down gracefully with SIGTERM.
func TestCqualdDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test in -short mode")
	}
	corpus, err := filepath.Glob("internal/constinfer/testdata/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(corpus))
	}
	cqual := buildCqual(t)
	cquald := buildCquald(t)

	daemon := exec.Command(cquald, "-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	// The daemon logs the resolved address (port 0 picks a free port).
	var addr string
	logs := bufio.NewScanner(stderr)
	for logs.Scan() {
		line := logs.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr = "http://" + strings.TrimPrefix(line[i:], "listening on http://")
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address: %v", logs.Err())
	}
	go func() { // drain so the daemon never blocks on a full pipe
		for logs.Scan() {
		}
	}()

	local, err := exec.Command(cqual, append([]string{"-json", "-poly"}, corpus...)...).Output()
	if err != nil {
		t.Fatalf("local cqual -json: %v", err)
	}
	remote1, err := exec.Command(cqual, append([]string{"-serve", addr, "-poly"}, corpus...)...).Output()
	if err != nil {
		t.Fatalf("cqual -serve (cold): %v", err)
	}
	if stripTimings(string(local)) != stripTimings(string(remote1)) {
		t.Fatalf("daemon report differs from local run\n--- local ---\n%s\n--- daemon ---\n%s", local, remote1)
	}

	// The repeat request is a result-cache hit: byte-identical, timings
	// and all, because the stored bytes are served verbatim.
	remote2, err := exec.Command(cqual, append([]string{"-serve", addr, "-poly"}, corpus...)...).Output()
	if err != nil {
		t.Fatalf("cqual -serve (warm): %v", err)
	}
	if string(remote1) != string(remote2) {
		t.Fatal("cache hit not byte-identical to cold response")
	}

	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Requests    uint64 `json:"requests"`
		Analyses    uint64 `json:"analyses"`
		ResultCache struct {
			Hits uint64 `json:"hits"`
		} `json:"result_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Requests != 2 || metrics.Analyses != 1 || metrics.ResultCache.Hits != 1 {
		t.Fatalf("metrics = %+v; want 2 requests, 1 analysis, 1 hit", metrics)
	}

	// A conflicting program round-trips the exit status through the
	// daemon: 1, same as local cqual.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(bad, []byte("void f(const char *s) { *s = 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cqual, "-serve", addr, bad).CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("conflict via -serve: want exit 1, got %v\n%s", err, out)
	}

	// Taint round-trip: the daemon runs the prelude-driven analysis,
	// reports the planted flow, and the warm repeat is byte-identical.
	taintArgs := []string{"-serve", addr, "-analysis", "taint", "-prelude", "examples/taint-c/taint.q",
		"examples/taint-c/format.c", "examples/taint-c/network.c", "examples/taint-c/buffer.c"}
	taint1, err := exec.Command(cqual, taintArgs...).Output()
	exitT, ok := err.(*exec.ExitError)
	if !ok || exitT.ExitCode() != 1 {
		t.Fatalf("taint via -serve (cold): want exit 1, got %v\n%s", err, taint1)
	}
	for _, want := range []string{`"analyses"`, "taint", "qualifier-conflict", `result of \"getenv\" is tainted`} {
		if !strings.Contains(string(taint1), want) {
			t.Errorf("daemon taint report missing %q:\n%s", want, taint1)
		}
	}
	taint2, err := exec.Command(cqual, taintArgs...).Output()
	if exitT, ok = err.(*exec.ExitError); !ok || exitT.ExitCode() != 1 {
		t.Fatalf("taint via -serve (warm): want exit 1, got %v", err)
	}
	if string(taint1) != string(taint2) {
		t.Fatal("warm taint response not byte-identical to cold")
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
}

// TestCqualAllParseErrors: every bad input file is reported, not just the
// first, and the exit status is 2.
func TestCqualAllParseErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	dir := t.TempDir()
	bad1 := filepath.Join(dir, "bad1.c")
	bad2 := filepath.Join(dir, "bad2.c")
	missing := filepath.Join(dir, "missing.c")
	for _, f := range []string{bad1, bad2} {
		if err := os.WriteFile(f, []byte("int broken( {\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, bad1, bad2, missing)
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v\n%s", err, out)
	}
	for _, want := range []string{"bad1.c", "bad2.c", "missing.c"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("error for %s not reported:\n%s", want, out)
		}
	}
}

// TestCqualUniqueC: the uniqueness analysis over its C example corpus
// against the committed golden flow traces. Three planted violations
// (aliased mutation, consuming a shared buffer, mutation after the
// conservative escape) are reported; the borrowing function recovers
// and stays clean.
func TestCqualUniqueC(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	args := []string{"-analysis", "unique", "-prelude", "examples/unique-c/unique.q", "examples/unique-c/registry.c"}

	outb, err := exec.Command(bin, args...).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on planted violations, got %v\n%s", err, outb)
	}
	out := string(outb)
	golden, err := os.ReadFile("examples/unique-c/expected.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := kappaEqual(out, string(golden)); err != nil {
		t.Errorf("output drifted from examples/unique-c/expected.txt up to κ renaming: %v\n--- got ---\n%s--- want ---\n%s", err, out, golden)
	}
	// The recovery rule: borrow_then_free writes and frees its buffer
	// after a borrow and must NOT be reported.
	if strings.Contains(out, "borrow_then_free") || !strings.Contains(out, "3 qualifier conflict(s):") {
		t.Errorf("recovery rule failed (borrowed call must not escape):\n%s", out)
	}
}

// TestCqualFdstateC: the fd-state analysis over its C example corpus
// against the committed golden flow traces — a use-after-close and a
// returned closed descriptor, each with its flow through the close
// site; the delegated-close function stays clean.
func TestCqualFdstateC(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	args := []string{"-analysis", "fdstate", "-prelude", "examples/fdstate/fd.q", "examples/fdstate/server.c"}

	outb, err := exec.Command(bin, args...).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on planted violations, got %v\n%s", err, outb)
	}
	out := string(outb)
	golden, err := os.ReadFile("examples/fdstate/expected.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := kappaEqual(out, string(golden)); err != nil {
		t.Errorf("output drifted from examples/fdstate/expected.txt up to κ renaming: %v\n--- got ---\n%s--- want ---\n%s", err, out, golden)
	}
	if strings.Contains(out, "copy_request") || !strings.Contains(out, "returned from stale_handle") {
		t.Errorf("leak-on-return or clean-discipline check failed:\n%s", out)
	}
}

// TestCqualGoFdstate: the Go fd-state examples against their committed
// golden flow traces — receiver annotations ("recv: closed") seed and
// sink through os.File methods; the clean twin delegates Close and
// passes.
func TestCqualGoFdstate(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	args := []string{"-lang", "go", "-analysis", "fdstate", "-prelude", "examples/go-fdstate/fd.q"}

	run := func(pkg string, wantExit int) string {
		t.Helper()
		out, err := exec.Command(bin, append(args, pkg)...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("cqual %s: %v\n%s", pkg, err, out)
		}
		if exit != wantExit {
			t.Fatalf("cqual %s: exit %d, want %d\n%s", pkg, exit, wantExit, out)
		}
		return string(out)
	}

	dirty := run("./examples/go-fdstate/dirty", 1)
	golden, err := os.ReadFile("examples/go-fdstate/expected_dirty.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := kappaEqual(dirty, string(golden)); err != nil {
		t.Errorf("dirty output drifted from examples/go-fdstate/expected_dirty.txt up to κ renaming: %v\n--- got ---\n%s--- want ---\n%s", err, dirty, golden)
	}
	for _, want := range []string{
		`receiver of "os.File.Read" must be open`,
		`receiver of "os.File.Close" is closed`,
		"returned from repro/examples/go-fdstate/dirty.staleHandle",
	} {
		if !strings.Contains(dirty, want) {
			t.Errorf("dirty output missing %q:\n%s", want, dirty)
		}
	}
	run("./examples/go-fdstate/clean", 0)
}

// TestCqualLint: lint mode renders findings as
// "file:line:col: analysis: message", emits stable rule ids in JSON,
// and the baseline turns the exit status incremental — the dogfood
// gate's negative test: a synthetic new conflict fails the run even
// under the old baseline, and an entry that no longer fires is reported
// stale.
func TestCqualLint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "app.c")
	if err := os.WriteFile(src, []byte(`extern char *getenv(char *name);
extern int system(const char *cmd);
int run(void) {
    char *cmd = getenv("CMD");
    return system(cmd);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-analysis", "taint", "-prelude", "examples/taint-c/taint.q"}

	// Plain lint: one finding line per conflict, vet-shaped, exit 1.
	out, err := exec.Command(bin, append(append([]string{"-lint"}, args...), src)...).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("cqual -lint: want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "app.c:5:19: taint: qualifier {tainted} does not fit under bound {untainted}") {
		t.Errorf("lint line not in file:line:col: analysis: message form:\n%s", out)
	}

	// JSON findings carry the stable rule id; redirected output is the
	// baseline file format.
	baseline := filepath.Join(dir, "lint-baseline.json")
	jout, err := exec.Command(bin, append(append([]string{"-lint", "-json"}, args...), src)...).Output()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("cqual -lint -json: want exit 1, got %v\n%s", err, jout)
	}
	if !strings.Contains(string(jout), `"rule": "taint-conflict"`) {
		t.Errorf("lint JSON missing stable rule id:\n%s", jout)
	}
	if err := os.WriteFile(baseline, jout, 0o644); err != nil {
		t.Fatal(err)
	}

	// Under the baseline the same findings are suppressed: exit 0.
	out, err = exec.Command(bin, append(append([]string{"-lint", "-baseline", baseline}, args...), src)...).CombinedOutput()
	if err != nil {
		t.Fatalf("cqual -lint -baseline: want exit 0 on baselined findings, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 new finding(s), 1 suppressed") {
		t.Errorf("baseline summary missing:\n%s", out)
	}
	if !strings.Contains(string(out), ", 0 stale\n") {
		t.Errorf("baseline summary missing the stale count:\n%s", out)
	}

	// The negative test: a synthetic new conflict must fail the gate.
	if err := os.WriteFile(src, []byte(`extern char *getenv(char *name);
extern int system(const char *cmd);
extern int printf(const char *fmt);
int run(void) {
    char *cmd = getenv("CMD");
    return system(cmd);
}
int shout(void) {
    char *msg = getenv("MSG");
    return printf(msg);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, append(append([]string{"-lint", "-baseline", baseline}, args...), src)...).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("baseline gate: want exit 1 on a new conflict, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `"printf" must be untainted`) || strings.Contains(string(out), `"system" must be untainted`) {
		t.Errorf("gate must report exactly the new finding (printf), suppressing the baselined one (system):\n%s", out)
	}

	// Fixing the baselined conflict leaves its entry stale: the run
	// passes, names the entry and counts it.
	if err := os.WriteFile(src, []byte(`extern char *getenv(char *name);
int run(void) {
    char *cmd = getenv("CMD");
    return cmd != 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, append(append([]string{"-lint", "-baseline", baseline}, args...), src)...).CombinedOutput()
	if err != nil {
		t.Fatalf("stale baseline: want exit 0, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "stale baseline entry: ") || !strings.Contains(string(out), `"system" must be untainted`) ||
		!strings.Contains(string(out), "0 new finding(s), 0 suppressed by baseline "+baseline+", 1 stale\n") {
		t.Errorf("stale entry not reported:\n%s", out)
	}
}

// TestCqualGoPolyError: -lang go -poly names the limitation and says
// Go polymorphism is out of scope instead of a bare rejection.
func TestCqualGoPolyError(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	out, err := exec.Command(bin, "-lang", "go", "-poly", "./examples/go-taint/clean").CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("cqual -lang go -poly: want exit 2, got %v\n%s", err, out)
	}
	for _, want := range []string{"monomorphic", "out of scope"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-lang go -poly error missing %q:\n%s", want, out)
		}
	}
}

// TestCqualDogfood is the CI dogfood gate run locally: cqual analyzes
// this repository's own internal packages through the Go front end,
// and the committed lint-baseline.json must account for every finding.
// If this fails after an intentional change, regenerate with:
//
//	go run ./cmd/cqual -lang go -lint -json -analysis const,taint \
//	    -prelude examples/go-taint/go.q ./internal/... > lint-baseline.json
func TestCqualDogfood(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	out, err := exec.Command(bin, "-lang", "go", "-lint",
		"-analysis", "const,taint", "-prelude", "examples/go-taint/go.q",
		"-baseline", "lint-baseline.json", "./internal/...").CombinedOutput()
	if err != nil {
		t.Fatalf("dogfood gate failed — new findings over lint-baseline.json (see test doc to refresh): %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 new finding(s)") {
		t.Errorf("gate summary missing:\n%s", out)
	}
	// A stale entry would keep suppressing any later finding with its
	// rule, file and message: prune it (see the refresh command above).
	if !strings.Contains(string(out), ", 0 stale\n") {
		t.Errorf("lint-baseline.json has entries that no longer fire:\n%s", out)
	}
}
