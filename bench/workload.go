package main

// The four workloads and their inputs. A workload's inputs are built from
// the seed alone; its known answers are built alongside them (see
// oracle.go).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/driver"
	_ "repro/internal/gofront" // registers the Go front end
	"repro/internal/server"
)

// workload is one fixed input set.
type workload struct {
	name string
	// batch workloads run each op in a fresh child process making the
	// calls of cqual -json; the others send requests to a daemon child.
	batch bool
	// cap bounds the ops of one run (per client for the daemon
	// workloads), so a faster program never changes a workload's mix.
	cap    int
	inputs func(seed int64, sc scale, dir string) (*inputs, error)
}

var workloads = []workload{
	{name: "c-synth-100k", batch: true, cap: 25, inputs: cSynthInputs},
	{name: "go-self", batch: true, cap: 16, inputs: goSelfInputs},
	{name: "daemon-edit", cap: 12 * editSteps, inputs: daemonEditInputs},
	{name: "daemon-mixed", cap: 300, inputs: daemonMixedInputs},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the inputs: fullScale is the benchmark, the smoke test runs
// a reduced copy of every workload.
type scale struct {
	cLines     int    // c-synth-100k program
	goPattern  string // go-self packages, under the snapshot root
	goPins     goPins
	editLines  int // each daemon-edit client's program
	mixedLines int // each daemon-mixed C program
	cap        int // overrides every workload's op cap when > 0
}

var fullScale = scale{
	cLines:     100_000,
	goPattern:  "internal/...",
	goPins:     goSelfPins,
	editLines:  10_000,
	mixedLines: 2_000,
}

// inputs is everything a run sends, with the check for every answer.
type inputs struct {
	// args are the batch child's arguments, check its report's check.
	args  []string
	check func([]byte) error
	// warm requests are sent once before anything is measured; clients
	// are the measured request streams, one per client. A batch workload
	// has one client repeating its op in request form, which is what the
	// traced replay runs.
	warm    []request
	clients [][]request
	// block is the number of requests that make up one full mix; a
	// client stops only at a block boundary.
	block int
}

// request is one analysis request and what its answer must be.
type request struct {
	kind string // batch, session, hit, miss_c, miss_go, warm
	body []byte
	// warm is, for a hit, the index of the warm request whose response
	// the hit must equal byte for byte.
	warm  int
	check func([]byte) error
}

// xcache is the X-Cache header the daemon must answer the request with.
func (q request) xcache() string {
	switch q.kind {
	case "hit", "session":
		return q.kind
	}
	return "miss"
}

// benchDir is the directory of this package relative to the working
// directory: the repository root when run through run.sh, the package
// directory under go test.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "testdata")); err == nil {
		return "bench"
	}
	return "."
}

func encodeRequest(req server.AnalyzeRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a request of strings and bools always marshals
	}
	return b
}

func repeat(q request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = q
	}
	return out
}

// c-synth-100k: one generated 100k-line C program, mono const. The C front
// end is the wall clock here and there is one file per fresh process, so a
// parse cache must show no gain while lexer or AST work shows in full.
func cSynthInputs(seed int64, sc scale, dir string) (*inputs, error) {
	text := cProgram(sc.cLines, seed)
	path := filepath.Join(dir, "synth.c")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return nil, err
	}
	check := checkC(cWant(text))
	body := encodeRequest(server.AnalyzeRequest{Sources: []server.SourceJSON{{Path: path, Text: text}}})
	return &inputs{
		args:    []string{"-lang", "c", path},
		check:   check,
		clients: [][]request{repeat(request{kind: "batch", body: body, check: check}, sc.cap)},
		block:   1,
	}, nil
}

// go-self: the frozen snapshot of the repository's own packages, -lang go
// const. Go package loading is the wall clock and every process
// type-checks the standard library from source again.
func goSelfInputs(seed int64, sc scale, dir string) (*inputs, error) {
	root := filepath.Join(benchDir(), "testdata", "goself")
	digest, err := snapshotDigest(root)
	if err != nil {
		return nil, err
	}
	if digest != goSelfDigest {
		return nil, fmt.Errorf("go-self snapshot %s has digest %s, want %s", root, digest, goSelfDigest)
	}
	pattern := filepath.Join(root, sc.goPattern)
	fe, _ := driver.LookupFrontEnd("go")
	files, errs := fe.Load([]driver.Source{{Path: pattern}})
	req := server.AnalyzeRequest{Lang: "go"}
	for i, f := range files {
		if errs[i] != nil {
			return nil, errs[i]
		}
		req.Sources = append(req.Sources, server.SourceJSON{Path: f.Path, Text: f.Text})
	}
	check := checkGoPins(sc.goPins)
	return &inputs{
		args:    []string{"-lang", "go", pattern},
		check:   check,
		clients: [][]request{repeat(request{kind: "batch", body: encodeRequest(req), check: check}, sc.cap)},
		block:   1,
	}, nil
}

// editSteps is the length of each daemon-edit client's edit script.
const editSteps = 16

// daemon-edit: each of two clients owns a session over its own 8-file C
// program (poly, simplify) and re-sends all 8 files with one line of one
// function body changed by its edit script. The result cache is bypassed,
// the summary cache replays, the session re-solves, and 7 unchanged files
// are parsed again on every request.
func daemonEditInputs(seed int64, sc scale, dir string) (*inputs, error) {
	in := &inputs{block: editSteps}
	opts := constinfer.Options{Poly: true, Simplify: true}
	parsed := map[string]*cfront.File{}
	parse := func(path, text string) (*cfront.File, error) {
		if f, ok := parsed[path+"\x00"+text]; ok {
			return f, nil
		}
		f, err := cfront.Parse(path, text)
		parsed[path+"\x00"+text] = f
		return f, err
	}
	for c := range 2 {
		files, err := splitProgram(cProgram(sc.editLines, seed+1+int64(c)), 8)
		if err != nil {
			return nil, err
		}
		script, err := editScript(files)
		if err != nil {
			return nil, err
		}
		paths := make([]string, len(files))
		for k := range files {
			paths[k] = fmt.Sprintf("edit%d/f%d.c", c, k)
		}
		body := func(texts []string) []byte {
			req := server.AnalyzeRequest{Poly: true, Simplify: true, Session: fmt.Sprintf("edit-%d", c)}
			for k, t := range texts {
				req.Sources = append(req.Sources, server.SourceJSON{Path: paths[k], Text: t})
			}
			return encodeRequest(req)
		}
		in.warm = append(in.warm, request{kind: "session", body: body(files), check: func([]byte) error { return nil }})

		// The expected answer of every step is a cold, session-less
		// analysis of the same sources; each distinct file is parsed once.
		steps := make([]request, len(script))
		for j, e := range script {
			texts := append([]string(nil), files...)
			texts[e.file] = e.text
			units := make([]*cfront.File, len(texts))
			for k, t := range texts {
				if units[k], err = parse(paths[k], t); err != nil {
					return nil, fmt.Errorf("daemon-edit step %d: %v", j, err)
				}
			}
			res, err := driver.RunFiles(driver.Config{Options: opts}, units)
			if err != nil {
				return nil, err
			}
			cold, err := res.JSON()
			if err != nil {
				return nil, err
			}
			want, err := normalReport(cold)
			if err != nil {
				return nil, err
			}
			steps[j] = request{kind: "session", body: body(texts), check: checkSame(want)}
		}
		reqs := make([]request, sc.cap)
		for i := range reqs {
			reqs[i] = steps[i%len(steps)]
		}
		in.clients = append(in.clients, reqs)
	}
	return in, nil
}

// mixedBlock is one full daemon-mixed mix, shuffled per block: 3 hits, 4
// C misses, 3 Go misses. The shares put p50 at the C misses' median and
// p90 inside the Go misses, away from any boundary between request kinds.
// Hits are not given the median: a hit's latency is bimodal, fast unless
// it allocates while a collection driven by the other client's Go miss
// is running, and any percentile of a hit-dominated mix lands on the slow
// mode's edge (at 60% hits p50 spread 27% from run to run, at 70% 35%).
var mixedBlock = []string{"hit", "hit", "hit", "miss_c", "miss_c", "miss_c", "miss_c", "miss_go", "miss_go", "miss_go"}

// mixedHits is the number of pre-warmed C programs the hits draw from.
const mixedHits = 8

// daemon-mixed: two clients sending a seeded mix of result-cache hits
// (pre-warmed ~2k-line C programs), C misses (fresh ~2k-line programs) and
// Go misses (the fd-state example with a unique trailing comment, so
// nothing of it is shared between requests).
func daemonMixedInputs(seed int64, sc scale, dir string) (*inputs, error) {
	fd, err := loadGoFD(filepath.Join(benchDir(), "testdata", "gofdstate"))
	if err != nil {
		return nil, err
	}
	const goPath = "gofd/main.go"
	goRequest := func(tag string) request {
		return request{kind: "miss_go", check: checkGoFD(fd, goPath), body: encodeRequest(server.AnalyzeRequest{
			Lang:     "go",
			Analyses: []string{"fdstate"},
			Preludes: []server.PreludeJSON{{Path: "fd.q", Text: fd.prelude}},
			Sources:  []server.SourceJSON{{Path: goPath, Text: fd.text + "\n// request " + tag + "\n"}},
		})}
	}
	cRequest := func(kind, path string, seed int64) request {
		text := cProgram(sc.mixedLines, seed)
		return request{
			kind:  kind,
			body:  encodeRequest(server.AnalyzeRequest{Sources: []server.SourceJSON{{Path: path, Text: text}}}),
			check: func(data []byte) error { return checkC(cWant(text))(data) },
		}
	}

	in := &inputs{block: len(mixedBlock)}
	for k := range mixedHits {
		in.warm = append(in.warm, cRequest("warm", fmt.Sprintf("mixed/hit%d.c", k), seed*1000+int64(k)))
	}
	// One Go request reads the standard library sources into the page
	// cache before the first measured Go miss does.
	in.warm = append(in.warm, goRequest("warm"))

	for c := range 2 {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var reqs []request
		for len(reqs) < sc.cap {
			block := append([]string(nil), mixedBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, kind := range block {
				i := len(reqs)
				var q request
				switch kind {
				case "hit":
					k := rng.Intn(mixedHits)
					q = in.warm[k]
					q.kind, q.warm = "hit", k
				case "miss_c":
					q = cRequest(kind, fmt.Sprintf("mixed/c%d-%d.c", c, i), seed*1_000_003+int64(c*100_000+i))
				default:
					q = goRequest(fmt.Sprintf("%d-%d", c, i))
				}
				reqs = append(reqs, q)
			}
		}
		in.clients = append(in.clients, reqs[:sc.cap])
	}
	return in, nil
}
