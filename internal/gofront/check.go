package gofront

// Parsing and type checking. The front end reads the loaded files'
// import headers, starts the go command listing their standard-library
// imports, and parses the files into one shared token.FileSet while the
// listing runs. It then groups them into packages by directory and
// type-checks each package with go/types. Imports resolve four ways,
// in order: a package already checked in this run; a module-local
// package, checked transitively from its files on disk with the
// request's cleanly parsed files as an overlay (such a file is not
// parsed again, and a dependency check sees the request's text, not the
// disk copy); a package under GOROOT, through the process-wide importer
// every run shares (compiler export data from the go command's build
// cache, or GOROOT's sources when the go command cannot supply it); or
// any other package (GOPATH, a vendored tree), through this run's own
// source importer. Any import or type-check failure is downgraded to a
// warning diagnostic and the failed package is replaced by an empty
// stub — the analysis always proceeds on whatever type information
// exists, because a conservative answer on a partially typed program is
// still sound for the positive const question ("is this reference never
// written through?" is only ever weakened by missing information we
// treat as writes at call edges).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/driver"
)

// noCgo disables cgo in the build context the source importers read,
// so cgo-using packages (net, os/user) type-check their pure-Go
// fallback files instead of failing in containers without a C
// toolchain.
var noCgo sync.Once

// std serves every import that resolves into $GOROOT/src, for every
// Parse in the process, from the compiler's export data: the analysis
// sees library code only through its exported signatures, and the go
// command's build cache already holds them. GOROOT is read-only while
// the process runs, so the import path alone is the key.
//
// The go command is asked once per Parse, in one batch, for the export
// data of the requested files' GOROOT imports and their dependencies.
// The batch runs in the background while Parse parses the files, and
// holds mu until it ends, so the run's first import waits for it rather
// than listing its own path; Parse does not return before it ends. A
// later miss (a GOROOT import of a module-local dependency) lists that
// one path. Failed lookups are not cached, so every run retries a
// failure and reports it again.
//
// Until the first package is handed out, any failure of the go command
// or of decoding its export data switches the whole process to the
// source importer, which type-checks GOROOT from source. After that the
// process never switches: a source-checked copy of a package would
// carry its own io, fmt and so on, distinct from the ones the export
// data already handed out, so an import the export path cannot serve
// is reported as a failed import instead.
//
// Standard-library positions live in the importer's own FileSet and are
// never resolved through a run's: registerPositions and engine.pos use
// nodes of requested files only, and loader.note resolves only the
// positions of type errors in the run's own packages. The one position
// go/types itself prints from another package, the "declared at" of a
// type parameter it cannot infer, reads as "-": the importer's FileSet
// starts at stdBase, above every run FileSet's positions.
var std = newStdImporter(filepath.Join(build.Default.GOROOT, "bin", "go"))

// stdBase is the first position of the standard-library FileSet: 1 GiB
// of run sources fit below it, even with a 32-bit int.
const stdBase = 1 << 30

// stdImporter's mutex guards every field below it: the lookup table is
// every run's, and go/importer's importers are not safe for concurrent
// use.
type stdImporter struct {
	goCmd string // GOROOT's go command
	fset  *token.FileSet

	mu      sync.Mutex
	exports map[string]string  // import path → export data file
	gc      types.ImporterFrom // reads exports
	served  int                // packages gc has handed out
	lists   int                // go command processes list started
	listDur time.Duration      // their total wall time
	src     types.ImporterFrom // non-nil once the process is on source
	reason  string             // why src serves the process
}

func newStdImporter(goCmd string) *stdImporter {
	fset := token.NewFileSet()
	fset.AddFile("", stdBase, 0)
	s := &stdImporter{goCmd: goCmd, fset: fset, exports: map[string]string{}}
	s.gc = importer.ForCompiler(fset, "gc", s.lookup).(types.ImporterFrom)
	return s
}

// lookup opens one listed package's export data; gc calls it under mu,
// only for the path ImportFrom listed, because export data carries the
// declarations it needs from its dependencies.
func (s *stdImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := s.exports[path]
	if !ok {
		return nil, fmt.Errorf("%q is not listed", path)
	}
	return os.Open(file)
}

// prefetch starts one go command run, in the background, listing the
// paths that are not listed yet and their dependencies, and returns a
// function that waits for it to end. It takes mu before it returns and
// the listing releases it, so an ImportFrom made meanwhile waits for
// the batch instead of listing its own path. A failure is the first
// import's to report.
func (s *stdImporter) prefetch(ctx context.Context, paths []string) (wait func()) {
	s.mu.Lock()
	var missing []string
	if s.src == nil {
		for _, path := range paths {
			if _, ok := s.exports[path]; !ok {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) == 0 {
		s.mu.Unlock()
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.mu.Unlock()
		_, _ = s.list(ctx, missing)
	}()
	return func() { <-done }
}

// list runs `go list -export -deps` over paths, records every package
// it gives export data for, and returns the go command's reason for
// each package it could not build. It is GOROOT's own go command, run
// in GOROOT, so the listing cannot resolve into the caller's module or
// switch to another toolchain; every other variable (GOCACHE,
// CGO_ENABLED, GOFLAGS) is the caller's, so the export data is what the
// caller's own builds left in the cache. A failed run before anything
// was served puts the process on the source importer; a cancelled one
// changes nothing. Every run that starts the go command, cancelled or
// not, counts in StdlibImporter's tally of runs and wall time.
func (s *stdImporter) list(ctx context.Context, paths []string) (map[string]string, error) {
	cmd := exec.CommandContext(ctx, s.goCmd, append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export,Error"}, paths...)...)
	cmd.Dir = filepath.Join(build.Default.GOROOT, "src")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	out, err := cmd.Output()
	if cmd.Process != nil {
		s.lists++
		s.listDur += time.Since(start)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var listed, failed map[string]string
	if err == nil {
		listed, failed, err = parseList(out)
	}
	if err != nil {
		err = fmt.Errorf("go list: %v", err)
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			err = fmt.Errorf("%v: %s", err, msg)
		}
		if s.served == 0 {
			s.useSource(err.Error())
		}
		return nil, err
	}
	maps.Copy(s.exports, listed)
	return failed, nil
}

// parseList reads `go list -json` output: the export data file of each
// package that has one, and the error of each that has none.
func parseList(out []byte) (listed, failed map[string]string, err error) {
	listed, failed = map[string]string{}, map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Export string
			Error              *struct{ Err string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			return listed, failed, nil
		} else if err != nil {
			return nil, nil, err
		}
		switch {
		case p.Export != "":
			listed[p.ImportPath] = p.Export
		case p.Error != nil:
			failed[p.ImportPath] = p.Error.Err
		}
	}
}

// useSource puts the process on the source importer for good.
func (s *stdImporter) useSource(reason string) {
	s.src = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	s.reason = reason
}

// ImportFrom imports one GOROOT package. The lock is released by defer:
// a go/types panic under it, which net/http recovers in a daemon
// handler, must not block every later Go request.
func (s *stdImporter) ImportFrom(ctx context.Context, path, srcDir string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.exports[path]; !ok && s.src == nil {
		failed, err := s.list(ctx, []string{path})
		switch {
		case s.src != nil:
			// The listing failed before anything was served.
		case err != nil:
			return nil, err
		case failed[path] != "":
			return nil, errors.New(failed[path])
		}
	}
	if s.src != nil {
		return s.src.ImportFrom(path, srcDir, 0)
	}
	pkg, err := s.decode(path, srcDir)
	switch {
	case err == nil:
		s.served++
	case s.served == 0:
		s.useSource(err.Error())
		return s.src.ImportFrom(path, srcDir, 0)
	default:
		// Listed again on the next run: the build cache may have
		// dropped the file.
		delete(s.exports, path)
	}
	return pkg, err
}

// decode reads one package's export data. Export data the importer
// cannot read, such as a newer release's format, can panic the decoder.
func (s *stdImporter) decode(path, srcDir string) (pkg *types.Package, err error) {
	defer func() {
		if r := recover(); r != nil {
			pkg, err = nil, fmt.Errorf("export data for %q: %v", path, r)
		}
	}()
	return s.gc.ImportFrom(path, srcDir, 0)
}

// StdlibImporter names the standard-library importer this process has
// used so far: "export data" with its package counts and the go command
// runs that listed them, "source" with the reason, or "none" before any
// Go run imported a GOROOT package.
func StdlibImporter() string {
	return std.describe()
}

func (s *stdImporter) describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.src != nil:
		return "source (" + s.reason + ")"
	case s.served > 0:
		runs := "runs"
		if s.lists == 1 {
			runs = "run"
		}
		return fmt.Sprintf("export data, %d packages listed by %d go list %s in %d ms, %d imported",
			len(s.exports), s.lists, runs, s.listDur.Milliseconds(), s.served)
	}
	return "none"
}

// inGoroot reports whether path, imported from srcDir, resolves into
// $GOROOT/src. The directory test comes first because go/build's
// lookup of a path outside GOROOT runs the go command in module mode.
func inGoroot(path, srcDir string) bool {
	fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path)))
	if err != nil || !fi.IsDir() {
		return false
	}
	bp, err := build.Default.Import(path, srcDir, build.FindOnly)
	return err == nil && bp.Goroot
}

// maxPkgNotes bounds the type-error warnings reported per package;
// beyond it one summary note stands in for the rest.
const maxPkgNotes = 8

// Parse parses the loaded files and type-checks them as packages. The
// returned error slice is parallel to files (syntax errors only);
// type-check problems become warning notes on the Program.
//
// The go command lists the files' GOROOT imports while the files
// parse: their import headers are read first, into a throwaway
// FileSet, and std lists them in the background. Parse waits for that
// listing before it returns, on every path.
func (frontEnd) Parse(ctx context.Context, files []driver.Source, loadErrs []error) (driver.Program, []error) {
	noCgo.Do(func() { build.Default.CgoEnabled = false })
	wait := std.prefetch(ctx, gorootImports(ctx, files, loadErrs))
	defer wait()
	fset := token.NewFileSet()
	parsed := make([]*ast.File, len(files))
	parseErrs := make([]error, len(files))
	for i := range files {
		if loadErrs[i] != nil || ctx.Err() != nil {
			continue
		}
		parsed[i], parseErrs[i] = parser.ParseFile(fset, files[i].Path, files[i].Text, parser.SkipObjectResolution)
	}

	prog := &Program{fset: fset}
	ld := newLoader(ctx, fset, prog)
	// Group the parsed files into packages by directory, preserving load
	// order within each package.
	groups := map[string]*pkgInfo{}
	var dirs []string
	for i, f := range parsed {
		if f == nil {
			continue
		}
		if abs, err := filepath.Abs(files[i].Path); err == nil && parseErrs[i] == nil {
			ld.overlay[abs] = f
		}
		dir := filepath.Dir(files[i].Path)
		g := groups[dir]
		if g == nil {
			g = &pkgInfo{Dir: dir}
			groups[dir] = g
			dirs = append(dirs, dir)
		}
		g.Files = append(g.Files, f)
		g.FileNames = append(g.FileNames, files[i].Path)
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		if ctx.Err() != nil {
			break
		}
		g := groups[dir]
		g.Path = ld.importPathFor(dir)
		ld.checkRequested(g)
		prog.Pkgs = append(prog.Pkgs, g)
	}
	// Package identity, not directory spelling, orders the corpus.
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	for _, g := range prog.Pkgs {
		prog.fileNames = append(prog.fileNames, g.FileNames...)
	}
	return prog, parseErrs
}

// gorootImports lists the distinct GOROOT imports of the loaded files,
// read from their import headers alone. The headers parse into a
// FileSet of their own, so the run's FileSet, and every position in
// it, is the full parse's alone.
func gorootImports(ctx context.Context, files []driver.Source, loadErrs []error) []string {
	fset := token.NewFileSet()
	var paths []string
	seen := map[string]bool{"unsafe": true}
	for i, src := range files {
		if loadErrs[i] != nil || ctx.Err() != nil {
			continue
		}
		f, _ := parser.ParseFile(fset, src.Path, src.Text, parser.ImportsOnly)
		if f == nil {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			if inGoroot(path, filepath.Dir(src.Path)) {
				paths = append(paths, path)
			}
		}
	}
	return paths
}

// pkgInfo is one analyzed package: its parsed files and the go/types
// results constraint generation walks.
type pkgInfo struct {
	// Path is the import path ("repro/internal/qual"), or a synthetic
	// "./dir"-derived path outside any module.
	Path      string
	Dir       string
	Files     []*ast.File
	FileNames []string
	Pkg       *types.Package
	Info      *types.Info
}

// loader resolves and type-checks packages for one Parse call.
type loader struct {
	ctx  context.Context // the run's, for the go command std may start
	fset *token.FileSet
	prog *Program
	src  types.ImporterFrom // source importer for imports outside GOROOT and the module

	// overlay maps the absolute path of each requested file that parsed
	// cleanly to its syntax tree: a package checked from disk takes
	// these in place of the disk copies.
	overlay map[string]*ast.File

	// modules caches go.mod lookups by directory.
	modules map[string]moduleInfo
	// done maps import path → checked package (requested, local
	// dependency, or stub). loading guards import cycles.
	done    map[string]*types.Package
	loading map[string]bool
}

type moduleInfo struct {
	Root, Path string
}

func newLoader(ctx context.Context, fset *token.FileSet, prog *Program) *loader {
	return &loader{
		ctx:     ctx,
		fset:    fset,
		prog:    prog,
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		overlay: map[string]*ast.File{},
		modules: map[string]moduleInfo{},
		done:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// moduleFor walks up from dir to the enclosing go.mod, caching results.
func (ld *loader) moduleFor(dir string) (moduleInfo, bool) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return moduleInfo{}, false
	}
	if m, ok := ld.modules[abs]; ok {
		return m, m.Root != ""
	}
	var walk []string
	at := abs
	for {
		if m, ok := ld.modules[at]; ok {
			for _, d := range walk {
				ld.modules[d] = m
			}
			return m, m.Root != ""
		}
		walk = append(walk, at)
		if path := modulePathOf(filepath.Join(at, "go.mod")); path != "" {
			m := moduleInfo{Root: at, Path: path}
			for _, d := range walk {
				ld.modules[d] = m
			}
			return m, true
		}
		parent := filepath.Dir(at)
		if parent == at {
			break
		}
		at = parent
	}
	for _, d := range walk {
		ld.modules[d] = moduleInfo{}
	}
	return moduleInfo{}, false
}

// modulePathOf reads the module path from a go.mod, or "".
func modulePathOf(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest, _, _ = strings.Cut(rest, "//")
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				return unq
			}
			return rest
		}
	}
	return ""
}

// importPathFor derives a package's import path from its directory: the
// module path plus the module-relative directory, or a synthetic
// directory-derived path outside any module.
func (ld *loader) importPathFor(dir string) string {
	if m, ok := ld.moduleFor(dir); ok {
		abs, err := filepath.Abs(dir)
		if err == nil {
			rel, err := filepath.Rel(m.Root, abs)
			if err == nil {
				if rel == "." {
					return m.Path
				}
				return m.Path + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return "./" + filepath.ToSlash(filepath.Clean(dir))
}

// dirForImport maps an import path back to a module-local directory, if
// the path falls under a module this run has seen.
func (ld *loader) dirForImport(path string) (string, bool) {
	for _, m := range ld.sortedModules() {
		if path == m.Path {
			return m.Root, true
		}
		if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
			return filepath.Join(m.Root, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// sortedModules lists the distinct modules seen so far, deterministic
// (longest path first so nested modules shadow their parents).
func (ld *loader) sortedModules() []moduleInfo {
	seen := map[string]moduleInfo{}
	for _, m := range ld.modules {
		if m.Root != "" {
			seen[m.Path] = m
		}
	}
	out := make([]moduleInfo, 0, len(seen))
	for _, m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) > len(out[j].Path)
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// checkRequested type-checks one requested package group, retaining the
// Info maps constraint generation needs.
func (ld *loader) checkRequested(g *pkgInfo) {
	g.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	g.Pkg = ld.check(g.Path, g.Dir, g.Files, g.Info)
}

// check type-checks one package, records its type errors as warning
// notes, and returns the — possibly incomplete — package. When the
// caller supplies no files, the package's files on disk are checked,
// each taken from the overlay when the request supplied it and parsed
// from disk otherwise. Import cycles and re-checks resolve through the
// done/loading maps.
func (ld *loader) check(path, dir string, files []*ast.File, info *types.Info) *types.Package {
	if pkg, ok := ld.done[path]; ok && info == nil {
		return pkg
	}
	if ld.loading[path] {
		// Import cycle through a module-local package: stub the back
		// edge. (go/types would reject the cycle anyway; the stub keeps
		// the error local to one note.)
		ld.note(token.NoPos, "go-import-cycle", fmt.Sprintf("import cycle through %q; treating the back edge as an empty package", path))
		return ld.stub(path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	if files == nil {
		names, err := goFilesIn(dir)
		if err == nil && len(names) == 0 {
			err = fmt.Errorf("no Go files in %s", dir)
		}
		if err != nil {
			ld.note(token.NoPos, "go-load-error", fmt.Sprintf("loading %q: %v", path, err))
			return ld.stub(path)
		}
		for _, name := range names {
			if f := ld.overlay[name]; f != nil {
				files = append(files, f)
				continue
			}
			f, err := parser.ParseFile(ld.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				ld.note(token.NoPos, "go-parse-error", fmt.Sprintf("loading %q: %v", path, err))
				continue
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return ld.stub(path)
		}
	}

	var errs []types.Error
	conf := types.Config{
		Importer:         ld,
		Error:            func(err error) { errs = append(errs, err.(types.Error)) },
		FakeImportC:      true,
		IgnoreFuncBodies: info == nil, // dependency packages: interfaces only
	}
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if info == nil {
		// A requested file's errors are the full check's to report.
		errs = slices.DeleteFunc(errs, func(e types.Error) bool { return ld.requested(e.Pos) })
	}
	for i, e := range errs {
		if i == maxPkgNotes {
			ld.note(token.NoPos, "go-type-error",
				fmt.Sprintf("package %q: %d more type errors suppressed", path, len(errs)-maxPkgNotes))
			break
		}
		ld.note(e.Pos, "go-type-error", fmt.Sprintf("package %q: %s", path, e.Msg))
	}
	if pkg == nil {
		return ld.stub(path)
	}
	ld.done[path] = pkg
	return pkg
}

// requested reports whether pos lies in a requested file, one the
// overlay holds.
func (ld *loader) requested(pos token.Pos) bool {
	abs, err := filepath.Abs(ld.fset.Position(pos).Filename)
	return err == nil && ld.overlay[abs] != nil
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: local packages first, then
// the shared GOROOT importer or this run's source importer, then a
// stub-with-warning so type checking (and with it the analysis) always
// completes.
func (ld *loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.done[path]; ok {
		return pkg, nil
	}
	if dir, ok := ld.dirForImport(path); ok {
		return ld.check(path, dir, nil, nil), nil
	}
	var pkg *types.Package
	var err error
	if inGoroot(path, srcDir) {
		pkg, err = std.ImportFrom(ld.ctx, path, srcDir)
	} else {
		pkg, err = ld.src.ImportFrom(path, srcDir, 0)
	}
	if err != nil {
		ld.note(token.NoPos, "go-import-error",
			fmt.Sprintf("import %q: %v; treating it as an empty package (its calls get the conservative library rule)", path, err))
		return ld.stub(path), nil
	}
	ld.done[path] = pkg
	return pkg, nil
}

// stub makes (and remembers) an empty package for a failed import.
func (ld *loader) stub(path string) *types.Package {
	if pkg, ok := ld.done[path]; ok {
		return pkg
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if !token.IsIdentifier(name) {
		name = "pkg"
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	ld.done[path] = pkg
	return pkg
}

// note records one non-fatal front-end warning on the program.
func (ld *loader) note(pos token.Pos, code, msg string) {
	d := driver.Diagnostic{
		Severity: driver.SevWarning,
		Stage:    driver.StageParse,
		Code:     code,
		Message:  msg,
	}
	if pos.IsValid() {
		d.Pos = ld.fset.Position(pos).String()
	}
	ld.prog.notes = append(ld.prog.notes, d)
}

// Program is a parsed, type-checked Go corpus.
type Program struct {
	fset      *token.FileSet
	Pkgs      []*pkgInfo
	notes     []driver.Diagnostic
	fileNames []string
}

// FileNames lists the analyzed files, package-sorted.
func (p *Program) FileNames() []string { return p.fileNames }

// Notes returns the non-fatal front-end warnings (import failures,
// type-check errors the analysis proceeded past).
func (p *Program) Notes() []driver.Diagnostic { return p.notes }

// NewEngine binds the program to the shared qualifier engine.
func (p *Program) NewEngine(cfg driver.Config, suite *analysis.Suite) driver.Engine {
	return newEngine(p, cfg, suite)
}
