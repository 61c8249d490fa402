// Package benchgen generates synthetic C benchmark programs for the
// const-inference experiment of Section 4.4 of "A Theory of Type
// Qualifiers" (PLDI 1999).
//
// The paper measured six real GNU packages (woman, patch, m4, diffutils,
// ssh, uucp). Those sources are not available here, so this generator
// produces deterministic C programs matched to the paper's line counts
// and — more importantly — to the structural features that drive the
// experiment's numbers:
//
//   - pointer parameters that are only read (const-able, the Mono gain);
//   - a per-benchmark fraction of those already declared const ("programs
//     that show a significant effort to use const", Table 1);
//   - parameters written through (never const);
//   - flow-through functions in the strchr pattern, used by both writers
//     and readers — monomorphically everything fuses and is forced
//     non-const, polymorphically the readers stay const-able (the Poly
//     gain of 5–16%);
//   - mutually recursive function groups (FDG SCCs);
//   - shared struct fields, typedefs, globals, extern library functions
//     with const-annotated prototypes, string literals;
//   - pointer-free integer helpers providing realistic bulk, so that the
//     density of const positions per line matches real C (~0.05/line).
//
// Generation is seeded per benchmark, so the suite is reproducible.
package benchgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config describes one synthetic benchmark. The fractions control the
// mix of const-relevant structure per function group.
type Config struct {
	// Name labels the benchmark (paper benchmarks use the original names).
	Name string
	// Description is the Table 1 description.
	Description string
	// TargetLines approximates the generated program length.
	TargetLines int
	// Seed makes generation deterministic.
	Seed int64

	// ReadersPerGroup is the number of read-only string functions per
	// group (each contributes one const-able position).
	ReadersPerGroup int
	// DeclaredConstFrac is the probability that a reader's parameter is
	// already declared const.
	DeclaredConstFrac float64
	// WritersPerGroup is the number of functions writing through their
	// pointer parameter per group.
	WritersPerGroup int
	// StructFrac is the probability a group defines and uses a struct
	// (adds a read-only struct walker and a field-setting writer).
	StructFrac float64
	// FlowFrac is the probability a group has a flow-through helper with
	// a reader client; MixedFlowFrac (of those) adds a writer client,
	// which is what polymorphism untangles.
	FlowFrac float64
	// MixedFlowFrac see FlowFrac.
	MixedFlowFrac float64
	// RecursionFrac is the probability a group includes a mutually
	// recursive pair over its struct (requires the struct).
	RecursionFrac float64
	// IntHelpers is the number of pointer-free helper functions per
	// group, the bulk of real programs.
	IntHelpers int
	// WideHubFrac is the probability a group emits a wide hub: a fan of
	// one-step flow-through functions all feeding one dispatcher. Hubs
	// broaden the constraint graph's condensation — many components at
	// the same topological depth.
	WideHubFrac float64
	// DeepChainFrac is the probability a group emits a deep chain of
	// flow-through functions. Chains deepen the condensation — many
	// levels with few components each.
	DeepChainFrac float64
}

// PaperSuite returns configurations mirroring Table 1 of the paper: the
// same names, descriptions and line counts, with structure parameters
// tuned per benchmark toward the paper's measured ratios (declared/total,
// mono/total, poly/mono).
func PaperSuite() []Config {
	return []Config{
		{Name: "woman-3.0a", Description: "Replacement for man package",
			TargetLines: 1496, Seed: 1001, ReadersPerGroup: 12, DeclaredConstFrac: 0.80,
			WritersPerGroup: 3, StructFrac: 0.5, FlowFrac: 0.5, MixedFlowFrac: 0.5,
			RecursionFrac: 0.10, IntHelpers: 6},
		{Name: "patch-2.5", Description: "Apply a diff file to an original",
			TargetLines: 5303, Seed: 1002, ReadersPerGroup: 13, DeclaredConstFrac: 0.85,
			WritersPerGroup: 5, StructFrac: 0.5, FlowFrac: 0.5, MixedFlowFrac: 0.5,
			RecursionFrac: 0.12, IntHelpers: 6},
		{Name: "m4-1.4", Description: "Unix macro preprocessor",
			TargetLines: 7741, Seed: 1003, ReadersPerGroup: 10, DeclaredConstFrac: 0.38,
			WritersPerGroup: 4, StructFrac: 0.6, FlowFrac: 0.5, MixedFlowFrac: 0.35,
			RecursionFrac: 0.15, IntHelpers: 6},
		{Name: "diffutils-2.7", Description: "Collection of utilities for diffing files",
			TargetLines: 8741, Seed: 1004, ReadersPerGroup: 9, DeclaredConstFrac: 0.88,
			WritersPerGroup: 5, StructFrac: 0.7, FlowFrac: 0.8, MixedFlowFrac: 0.6,
			RecursionFrac: 0.12, IntHelpers: 6},
		{Name: "ssh-1.2.26", Description: "Secure shell",
			TargetLines: 18620, Seed: 1005, ReadersPerGroup: 10, DeclaredConstFrac: 0.52,
			WritersPerGroup: 4, StructFrac: 0.7, FlowFrac: 0.7, MixedFlowFrac: 0.5,
			RecursionFrac: 0.10, IntHelpers: 7},
		{Name: "uucp-1.04", Description: "Unix to unix copy package",
			TargetLines: 36913, Seed: 1006, ReadersPerGroup: 10, DeclaredConstFrac: 0.46,
			WritersPerGroup: 4, StructFrac: 0.7, FlowFrac: 0.8, MixedFlowFrac: 0.6,
			RecursionFrac: 0.12, IntHelpers: 6},
	}
}

// ParallelCorpus returns the configuration of the large synthetic
// corpus (named for the parallel solve it was first built to measure;
// the bench's c-synth workloads use it): a program of about
// targetLines lines mixing the paper's shapes with wide hubs and deep
// chains, so the constraint graph has both broad and chain-shaped
// condensations. Generation is deterministic
// per seed and single-pass — the line count is tracked incrementally,
// so a million-line corpus costs the same per line as a small one.
func ParallelCorpus(targetLines int, seed int64) Config {
	return Config{
		Name:        fmt.Sprintf("synth-%dk", targetLines/1000),
		Description: "parallel-solve benchmark corpus",
		TargetLines: targetLines, Seed: seed,
		ReadersPerGroup: 10, DeclaredConstFrac: 0.5,
		WritersPerGroup: 4, StructFrac: 0.6,
		FlowFrac: 0.6, MixedFlowFrac: 0.5,
		RecursionFrac: 0.12, IntHelpers: 6,
		WideHubFrac: 0.35, DeepChainFrac: 0.25,
	}
}

// Generate produces the benchmark's C source text.
func Generate(cfg Config) string {
	if cfg.ReadersPerGroup <= 0 {
		cfg.ReadersPerGroup = 8
	}
	if cfg.WritersPerGroup <= 0 {
		cfg.WritersPerGroup = 2
	}
	if cfg.IntHelpers < 0 {
		cfg.IntHelpers = 4
	}
	g := &gen{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	return g.program()
}

type gen struct {
	cfg Config
	rng *rand.Rand
	b   strings.Builder
	nl  int // newlines emitted so far; kept incrementally, the builder is never rescanned
	grp int
}

func (g *gen) pf(format string, args ...interface{}) {
	s := fmt.Sprintf(format, args...)
	g.b.WriteString(s)
	g.nl += strings.Count(s, "\n")
}

func (g *gen) program() string {
	g.header()
	var drivers []string
	for g.nl < g.cfg.TargetLines-40 {
		drivers = append(drivers, g.group())
	}
	g.mainFn(drivers)
	return g.b.String()
}

func (g *gen) header() {
	g.pf("/* %s — synthetic benchmark: %s */\n", g.cfg.Name, g.cfg.Description)
	g.pf("/* generated deterministically, seed %d */\n\n", g.cfg.Seed)
	g.pf("typedef unsigned long size_t;\n")
	g.pf("typedef char *string_t;\n\n")
	g.pf("extern size_t strlen(const char *s);\n")
	g.pf("extern char *strcpy(char *dst, const char *src);\n")
	g.pf("extern char *strcat(char *dst, const char *src);\n")
	g.pf("extern int strcmp(const char *a, const char *b);\n")
	g.pf("extern void *malloc(size_t n);\n")
	g.pf("extern void free(void *p);\n")
	g.pf("extern int printf(const char *fmt, ...);\n")
	g.pf("extern int sprintf(char *buf, const char *fmt, ...);\n\n")
	g.pf("static int g_errors;\n")
	g.pf("static int g_verbose;\n")
	g.pf("static char g_scratch[256];\n\n")
}

// intHelper emits a pointer-free function of 10–20 lines.
func (g *gen) intHelper(id, k int) string {
	r := g.rng
	name := fmt.Sprintf("calc%d_%d", id, k)
	g.pf("static int %s(int a, int b) {\n", name)
	g.pf("\tint acc = %d;\n\tint i;\n", r.Intn(100))
	g.pf("\tfor (i = 0; i < (a & 15); i++) {\n")
	switch r.Intn(4) {
	case 0:
		g.pf("\t\tacc += (b >> i) & 1 ? i * %d : -i;\n", 2+r.Intn(9))
	case 1:
		g.pf("\t\tacc ^= (a + i) * %d;\n\t\tif (acc < 0)\n\t\t\tacc = -acc;\n", 3+r.Intn(17))
	case 2:
		g.pf("\t\tswitch (i & 3) {\n\t\tcase 0: acc += b; break;\n\t\tcase 1: acc -= a; break;\n\t\tcase 2: acc *= 2; break;\n\t\tdefault: acc /= 3; break;\n\t\t}\n")
	default:
		g.pf("\t\twhile (acc > %d)\n\t\t\tacc -= b ? b : 1;\n", 500+r.Intn(5000))
	}
	g.pf("\t}\n")
	if r.Intn(2) == 0 {
		g.pf("\tif (g_verbose)\n\t\tg_errors += acc & 1;\n")
	}
	g.pf("\treturn acc;\n}\n\n")
	return name
}

// reader emits a read-only string function; declared controls the const
// keyword on its parameter.
func (g *gen) reader(id, k int, declared bool) string {
	r := g.rng
	name := fmt.Sprintf("rd%d_%d", id, k)
	kw := ""
	if declared {
		kw = "const "
	}
	g.pf("static int %s(%schar *s) {\n", name, kw)
	switch r.Intn(4) {
	case 0:
		g.pf("\tint h = %d;\n", 1+r.Intn(97))
		g.pf("\twhile (*s) {\n\t\th = h * 31 + *s;\n\t\ts++;\n\t}\n\treturn h;\n")
	case 1:
		g.pf("\tint n = 0;\n")
		g.pf("\twhile (s[n] && s[n] != '%c')\n\t\tn++;\n\treturn n;\n", 'a'+rune(r.Intn(26)))
	case 2:
		g.pf("\tint v = 0;\n")
		g.pf("\twhile (*s >= '0' && *s <= '9') {\n\t\tv = v * 10 + (*s - '0');\n\t\ts++;\n\t}\n\treturn v;\n")
	default:
		g.pf("\tint words = 0;\n\tint inword = 0;\n")
		g.pf("\tfor (; *s; s++) {\n\t\tif (*s == ' ' || *s == '\\t') {\n\t\t\tinword = 0;\n\t\t} else if (!inword) {\n\t\t\tinword = 1;\n\t\t\twords++;\n\t\t}\n\t}\n\treturn words;\n")
	}
	g.pf("}\n\n")
	return name
}

// writer emits a function writing through its pointer parameter.
func (g *gen) writer(id, k int) string {
	r := g.rng
	name := fmt.Sprintf("wr%d_%d", id, k)
	g.pf("static void %s(char *dst, int n) {\n", name)
	switch r.Intn(3) {
	case 0:
		g.pf("\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tdst[i] = (char)('%c' + (i %% %d));\n\tdst[n] = 0;\n",
			'A'+rune(r.Intn(20)), 3+r.Intn(23))
	case 1:
		g.pf("\twhile (n-- > 0)\n\t\t*dst++ = '%c';\n\t*dst = 0;\n", 'a'+rune(r.Intn(26)))
	default:
		g.pf("\tint i;\n\tfor (i = 0; i + 1 < n; i += 2) {\n\t\tdst[i] = '%c';\n\t\tdst[i + 1] = '%c';\n\t}\n\tdst[i < n ? i : n] = 0;\n",
			'0'+rune(r.Intn(10)), 'x')
	}
	g.pf("}\n\n")
	return name
}

// wideHub emits a fan of one-step flow-through functions and the
// dispatcher consuming all of them: w independent κ-chains of depth
// one, all at the same topological depth in the condensation.
func (g *gen) wideHub(id int) {
	r := g.rng
	w := 8 + r.Intn(9)
	for k := 0; k < w; k++ {
		g.pf("static char *pick%d_%d(char *s) {\n\treturn s + (*s ? %d : 0);\n}\n\n", id, k, k%3)
	}
	g.pf("static int hub%d(char *s) {\n\tint acc = 0;\n", id)
	for k := 0; k < w; k++ {
		g.pf("\tacc += *pick%d_%d(s);\n", id, k)
	}
	g.pf("\treturn acc;\n}\n\n")
}

// deepChain emits a linear chain of flow-through functions: one
// κ-chain of depth d, a condensation that is all levels and no width.
func (g *gen) deepChain(id int) {
	r := g.rng
	d := 10 + r.Intn(7)
	g.pf("static char *step%d_0(char *s) {\n\treturn s;\n}\n\n", id)
	for k := 1; k < d; k++ {
		g.pf("static char *step%d_%d(char *s) {\n\treturn step%d_%d(s + 1);\n}\n\n", id, k, id, k-1)
	}
	g.pf("static int chain%d(char *s) {\n\treturn *step%d_%d(s);\n}\n\n", id, id, d-1)
}

// group emits one module and returns its driver's name.
func (g *gen) group() string {
	id := g.grp
	g.grp++
	r := g.rng

	hasStruct := r.Float64() < g.cfg.StructFrac
	hasFlow := r.Float64() < g.cfg.FlowFrac
	mixed := hasFlow && r.Float64() < g.cfg.MixedFlowFrac
	recursive := hasStruct && r.Float64() < g.cfg.RecursionFrac
	hasHub := r.Float64() < g.cfg.WideHubFrac
	hasChain := r.Float64() < g.cfg.DeepChainFrac

	var helpers []string
	for k := 0; k < g.cfg.IntHelpers; k++ {
		helpers = append(helpers, g.intHelper(id, k))
	}
	var readers []string
	for k := 0; k < g.cfg.ReadersPerGroup; k++ {
		readers = append(readers, g.reader(id, k, r.Float64() < g.cfg.DeclaredConstFrac))
	}
	var writers []string
	for k := 0; k < g.cfg.WritersPerGroup; k++ {
		writers = append(writers, g.writer(id, k))
	}

	if hasStruct {
		g.pf("struct rec%d {\n\tchar *name;\n\tint tag;\n\tstruct rec%d *next;\n};\n\n", id, id)
		g.pf("static int rec_tag%d(struct rec%d *rp) {\n", id, id)
		g.pf("\tint t = 0;\n\twhile (rp) {\n\t\tt += rp->tag;\n\t\trp = rp->next;\n\t}\n\treturn t;\n}\n\n")
		g.pf("static void rec_set%d(struct rec%d *rp, char *nm, int tg) {\n", id, id)
		g.pf("\trp->name = nm;\n\trp->tag = tg;\n\trp->next = 0;\n}\n\n")
	}

	if hasFlow {
		g.pf("static char *skipws%d(char *s) {\n", id)
		g.pf("\twhile (*s == ' ' || *s == '\\t')\n\t\ts++;\n")
		if r.Intn(2) == 0 {
			g.pf("\tif (*s == '#')\n\t\treturn s + 1;\n")
		}
		g.pf("\treturn s;\n}\n\n")
		g.pf("static int count%d(char *line) {\n", id)
		g.pf("\tchar *p = skipws%d(line);\n", id)
		g.pf("\tint n = 0;\n\twhile (p[n])\n\t\tn++;\n\treturn n;\n}\n\n")
		if mixed {
			g.pf("static void chop%d(char *line) {\n", id)
			g.pf("\tchar *p = skipws%d(line);\n", id)
			g.pf("\t*p = 0;\n}\n\n")
		}
	}

	if hasHub {
		g.wideHub(id)
	}
	if hasChain {
		g.deepChain(id)
	}

	if recursive {
		g.pf("static int walk%d(struct rec%d *rp, int depth);\n", id, id)
		g.pf("static int probe%d(struct rec%d *rp, int depth) {\n", id, id)
		g.pf("\tif (!rp || depth > %d)\n\t\treturn 0;\n", 4+r.Intn(12))
		g.pf("\treturn rp->tag + walk%d(rp->next, depth + 1);\n}\n\n", id)
		g.pf("static int walk%d(struct rec%d *rp, int depth) {\n", id, id)
		g.pf("\tif (!rp)\n\t\treturn depth;\n")
		g.pf("\treturn probe%d(rp, depth + 1);\n}\n\n", id)
	}

	// The group driver, keeping the program type-correct.
	g.pf("static int run%d(int n) {\n", id)
	g.pf("\tchar local[%d];\n", 64+r.Intn(192))
	if hasStruct {
		g.pf("\tstruct rec%d r;\n", id)
	}
	g.pf("\tint acc = 0;\n")
	g.pf("\t%s(local, n %% %d);\n", writers[0], 31+r.Intn(32))
	for _, w := range writers[1:] {
		g.pf("\t%s(g_scratch, n %% %d);\n", w, 7+r.Intn(24))
	}
	for i, rd := range readers {
		if i%2 == 0 {
			g.pf("\tacc += %s(local);\n", rd)
		} else {
			g.pf("\tacc += %s(\"%s\");\n", rd, litText(r))
		}
	}
	for i, h := range helpers {
		g.pf("\tacc += %s(acc, n + %d);\n", h, i)
	}
	if hasFlow {
		g.pf("\tacc += count%d(local);\n", id)
		if mixed {
			g.pf("\tchop%d(local);\n", id)
		}
	}
	if hasHub {
		g.pf("\tacc += hub%d(local);\n", id)
	}
	if hasChain {
		g.pf("\tacc += chain%d(local);\n", id)
	}
	if hasStruct {
		g.pf("\trec_set%d(&r, local, n);\n", id)
		g.pf("\tacc += rec_tag%d(&r);\n", id)
	}
	if recursive {
		g.pf("\tacc += walk%d(&r, 0);\n", id)
	}
	g.pf("\treturn acc;\n}\n\n")
	return fmt.Sprintf("run%d", id)
}

func litText(r *rand.Rand) string {
	words := []string{"usage", "input", "output", "error", "file not found",
		"ok", "--help", "version 1.0", "warning", "done"}
	return words[r.Intn(len(words))]
}

func (g *gen) mainFn(drivers []string) {
	g.pf("int main(int argc, char **argv) {\n")
	g.pf("\tint total = argc;\n")
	for _, d := range drivers {
		g.pf("\ttotal += %s(total & 0xff);\n", d)
	}
	g.pf("\tif (argv[0])\n\t\ttotal += (int)strlen(argv[0]);\n")
	g.pf("\tprintf(\"%%d\\n\", total);\n")
	g.pf("\treturn total == 0;\n}\n")
}
