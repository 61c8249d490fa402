package driver

// The front-end seam: the pipeline's Load/Parse/Build/Constrain stages
// delegated behind an interface, so one driver serves several source
// languages. The paper's framework claim is that the qualifier engine is
// language-agnostic — the lattice, the constraint solver, and the ref-type
// discipline never mention C — and this file is where the repository makes
// that concrete: a FrontEnd turns raw inputs into a Program, a Program
// binds to an Engine, and everything from Solve onward (solver,
// classification, flow traces, JSON schema) is shared.
//
// Two front ends register themselves: "c" (internal/cfront + constinfer,
// registered here) and "go" (internal/gofront, registered by importing
// that package — every binary that wants -lang go imports it). The
// selected language travels in Config.Lang and is part of every
// result-cache key (see internal/cache).

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/qual"
)

// FrontEnd parses one source language into programs the shared qualifier
// engine can analyze: load → parse → constrain. Implementations
// must be stateless values safe for concurrent use; all per-run state
// lives in the Program and Engine they return.
type FrontEnd interface {
	// Lang is the registry key and the -lang spelling ("c", "go").
	Lang() string
	// Extensions lists the source-file extensions the front end claims,
	// leading dot included (".c"), for messages about its sources.
	Extensions() []string
	// Tree lists the source files under the directory dir that a run
	// over the whole tree reads (for Go, a run over dir/...), in the
	// order that run reads them. Directory watchers poll it.
	Tree(dir string) ([]string, error)
	// Check validates a pipeline config against the front end's
	// capabilities, as part of Config.Check (e.g. gofront rejects the
	// polymorphic modes it does not implement yet).
	Check(cfg Config) error
	// Load resolves raw inputs into loadable file sources. The returned
	// slices are parallel: files[i] carries the path and text of one
	// unit, errs[i] its load failure (nil text, reported as a
	// load-stage diagnostic). Front ends may expand one input into many
	// files (a Go package pattern) or read texts from disk (a C path).
	Load(sources []Source) (files []Source, errs []error)
	// Parse parses the loaded files into a Program. The returned error
	// slice is parallel to files: per-file syntax errors, reported as
	// parse-stage diagnostics in file order. Entries with a load error
	// are skipped. Parse must honor ctx cancellation between files.
	Parse(ctx context.Context, files []Source, loadErrs []error) (Program, []error)
}

// Program is one parsed corpus, ready to be bound to an analysis
// configuration.
type Program interface {
	// FileNames lists the parsed file names, for reports.
	FileNames() []string
	// NewEngine binds the program to a configuration and bound analysis
	// suite, returning the constraint engine the Solve stage drives.
	NewEngine(cfg Config, suite *analysis.Suite) Engine
}

// Engine is the staged qualifier-inference engine over one program: the
// Build/Constrain stages produce a constraint system, the Solve stage
// runs the shared solver, and Classify interprets the
// solution. *constinfer.Analysis is the C engine; internal/gofront
// provides the Go one. SolveSession is SolveSystemContext with an
// ignored session argument, kept for bench/replay.go and removed with
// the next benchmark change.
type Engine interface {
	Prepare()
	// ConstrainContext generates the constraint system. jobs has no
	// effect; it is kept for bench/replay.go, removed with the next
	// benchmark change. A panic inside it is the driver's to recover.
	ConstrainContext(ctx context.Context, jobs int)
	SolveSystemContext(ctx context.Context) []*constraint.Unsat
	SolveSession(ctx context.Context, ss *constraint.Session) []*constraint.Unsat
	Set() *qual.Set
	Classify(conflicts []*constraint.Unsat) *constinfer.Report
}

var (
	feMu  sync.RWMutex
	feReg = map[string]FrontEnd{}
)

// RegisterFrontEnd adds a front end to the registry; it panics on an
// empty or duplicate language key (registration is package-init-time
// configuration, not runtime input).
func RegisterFrontEnd(fe FrontEnd) {
	feMu.Lock()
	defer feMu.Unlock()
	if fe.Lang() == "" {
		panic("driver: RegisterFrontEnd with empty language")
	}
	if _, dup := feReg[fe.Lang()]; dup {
		panic("driver: duplicate front end for language " + fe.Lang())
	}
	feReg[fe.Lang()] = fe
}

// LookupFrontEnd returns the front end registered for the language; the
// empty string selects the default C front end.
func LookupFrontEnd(lang string) (FrontEnd, bool) {
	if lang == "" {
		lang = "c"
	}
	feMu.RLock()
	defer feMu.RUnlock()
	fe, ok := feReg[lang]
	return fe, ok
}

// FrontEndLangs lists the registered languages, sorted.
func FrontEndLangs() []string {
	feMu.RLock()
	defer feMu.RUnlock()
	langs := make([]string, 0, len(feReg))
	for l := range feReg {
		langs = append(langs, l)
	}
	sort.Strings(langs)
	return langs
}

// cFrontEnd is the C front end: cfront parsing feeding the constinfer
// engine — the paper's Section 4 pipeline, unchanged, behind the seam.
type cFrontEnd struct{}

func init() { RegisterFrontEnd(cFrontEnd{}) }

func (cFrontEnd) Lang() string           { return "c" }
func (cFrontEnd) Extensions() []string   { return []string{".c"} }
func (cFrontEnd) Check(cfg Config) error { return nil }

// Tree lists the .c files under dir, sorted, in every directory the go
// tool would descend into (SkipTreeDir). A subtree that vanishes during
// the walk is left out.
func (cFrontEnd) Tree(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil && path == dir:
			return err
		case err != nil:
			return nil
		case d.IsDir() && path != dir && SkipTreeDir(d.Name()):
			return filepath.SkipDir
		case !d.IsDir() && filepath.Ext(path) == ".c":
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// SkipTreeDir reports whether a walk over a source tree leaves out the
// subdirectory of this name: the go tool never descends into testdata,
// vendor, or hidden or underscore-prefixed directories.
func SkipTreeDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Load reads every source that does not already carry its text.
func (cFrontEnd) Load(sources []Source) ([]Source, []error) {
	files := make([]Source, len(sources))
	errs := make([]error, len(sources))
	for i, s := range sources {
		files[i] = s
		if s.Text != "" {
			continue
		}
		files[i].Text, errs[i] = readFileString(s.Path)
	}
	return files, errs
}

// readFileString reads a file straight into a string sized from its
// length, where os.ReadFile and a string conversion would copy it twice.
func readFileString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var b strings.Builder
	if fi, err := f.Stat(); err == nil {
		b.Grow(int(fi.Size()))
	}
	if _, err := io.Copy(&b, f); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Parse parses translation units concurrently on a GOMAXPROCS-bounded
// pool; per-file syntax errors come back in file order.
func (cFrontEnd) Parse(ctx context.Context, files []Source, loadErrs []error) (Program, []error) {
	parsed := make([]*cfront.File, len(files))
	parseErrs := make([]error, len(files))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range files {
		if loadErrs[i] != nil || ctx.Err() != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			parsed[i], parseErrs[i] = parseCFile(files[i])
		}(i)
	}
	wg.Wait()
	return &CProgram{Files: parsed}, parseErrs
}

// cParse is the per-file C parser; tests swap it to exercise the
// panic recovery in parseCFile.
var cParse = cfront.Parse

// parseCFile parses one translation unit. A panic in the parser becomes
// that file's parse error: it runs on a pool goroutine, where nothing
// else would catch it, and one bad file must not kill the process.
func parseCFile(f Source) (file *cfront.File, err error) {
	defer func() {
		if r := recover(); r != nil {
			file, err = nil, fmt.Errorf("%s: internal error in the C parser: %v", f.Path, r)
		}
	}()
	return cParse(f.Path, f.Text)
}

// CProgram is the parsed form of a C corpus: the cfront translation
// units, nil entries for sources that failed to load or parse.
type CProgram struct {
	Files []*cfront.File
}

// FileNames lists the parsed unit names.
func (p *CProgram) FileNames() []string {
	var out []string
	for _, f := range p.Files {
		if f != nil {
			out = append(out, f.Name)
		}
	}
	return out
}

// NewEngine binds the parsed units to the constinfer engine.
func (p *CProgram) NewEngine(cfg Config, suite *analysis.Suite) Engine {
	opts := cfg.Options
	opts.Suite = suite
	return constinfer.NewAnalysis(p.Files, opts)
}
