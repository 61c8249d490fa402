package gofront

// Parsing and type checking. The front end parses the loaded files into
// one shared token.FileSet, groups them into packages by directory, and
// type-checks each package with go/types. Imports resolve three ways,
// in order: a package already checked in this run, a module-local
// package loaded from disk and checked transitively, or the standard
// library through the go/types source importer. Any import or
// type-check failure is downgraded to a warning diagnostic and the
// failed package is replaced by an empty stub — the analysis always
// proceeds on whatever type information exists, because a conservative
// answer on a partially typed program is still sound for the positive
// const question ("is this reference never written through?" is only
// ever weakened by missing information we treat as writes at call
// edges).

import (
	"context"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/driver"
)

// noCgo disables cgo in the build context the source importer reads, so
// cgo-using stdlib packages (net, os/user) type-check their pure-Go
// fallback files instead of failing in containers without a C
// toolchain.
var noCgo sync.Once

// maxPkgNotes bounds the type-error warnings reported per package;
// beyond it one summary note stands in for the rest.
const maxPkgNotes = 8

// Parse parses the loaded files and type-checks them as packages. The
// returned error slice is parallel to files (syntax errors only);
// type-check problems become warning notes on the Program.
func (frontEnd) Parse(ctx context.Context, files []driver.Source, loadErrs []error) (driver.Program, []error) {
	noCgo.Do(func() { build.Default.CgoEnabled = false })
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
	// Group the parsed files into packages by directory, preserving load
	// order within each package.
	groups := map[string]*pkgInfo{}
	var dirs []string
	for i, f := range parsed {
		if f == nil {
			continue
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

	ld := newLoader(fset, prog)
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
	fset *token.FileSet
	prog *Program
	src  types.ImporterFrom // source importer for GOROOT/GOPATH packages

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

func newLoader(fset *token.FileSet, prog *Program) *loader {
	return &loader{
		fset:    fset,
		prog:    prog,
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
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
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
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

// check type-checks one package (parsing its files from disk when the
// caller supplies none), records its type errors as warning notes, and
// returns the — possibly incomplete — package. Import cycles and
// re-checks resolve through the done/loading maps.
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

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: local packages first, then
// the source importer, then a stub-with-warning so type checking (and
// with it the analysis) always completes.
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
	pkg, err := ld.src.ImportFrom(path, srcDir, 0)
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
