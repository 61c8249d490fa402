// Package gofront is the Go front end of the qualifier pipeline: it
// loads Go packages with go/parser + go/types (standard library only)
// and translates functions, methods, pointers, slices, maps, struct
// fields, and call edges into the same constraint fragments the C front
// end emits — the paper's framework claim made concrete: one qualifier
// engine, one solver, a second source language.
//
// The translation follows the Section 4.1 θ discipline: every Go
// variable is an updateable reference Q ref(contents); pointers,
// slices, maps, and channels translate to references to their element
// translation (one shared points-to cell per value — a sound
// over-approximation of Go's aliasing); struct types share one pinned
// reference per field across all values of the type, exactly as the C
// front end shares struct fields (Section 4.2).
//
// Two analyses are useful on day one. const infers unmutated-pointer
// parameters: a parameter position is "const" when no execution path
// writes through the reference, the paper's experiment run natively on
// Go (Go spells no const, so every position is inference, none
// declaration). taint flows from prelude-declared library seeds
// (os.Getenv, req.URL data) to prelude-declared sinks (sql.DB.Query,
// exec.Command) through the ordinary subtyping constraints, with flow
// traces pointing at real token.Positions.
//
// Constraint generation is sequential and iterates in source order
// (packages sorted by import path, files in load order, declarations in
// file order), so output is byte-identical from run to run by
// construction. The engine is monomorphic: -poly is rejected.
package gofront

import (
	"errors"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/driver"
)

// frontEnd implements driver.FrontEnd for Go.
type frontEnd struct{}

func init() { driver.RegisterFrontEnd(frontEnd{}) }

func (frontEnd) Lang() string         { return "go" }
func (frontEnd) Extensions() []string { return []string{".go"} }

// Tree lists the files a run over dir/... reads: the buildable non-test
// .go files of every package directory under dir.
func (frontEnd) Tree(dir string) ([]string, error) { return goTree(dir, true) }

// Check rejects the C-only modes: the Go engine is monomorphic (one
// shared signature per function, Section 4.2's C type system analogue)
// and has no flow-sensitive initialization checker.
func (frontEnd) Check(cfg driver.Config) error {
	if cfg.Options.Poly {
		return fmt.Errorf("gofront: the Go front end is monomorphic — every function gets one shared qualifier signature, so -poly has nothing to instantiate; polymorphic inference for Go is out of scope")
	}
	if cfg.Uninit {
		return fmt.Errorf("gofront: -uninit (the C definite-initialization check) is not supported for -lang go")
	}
	return nil
}

// Load resolves the inputs into .go file sources. Three input shapes
// are accepted, mirroring the go tool: an in-memory source (text
// supplied, used verbatim), a .go file path (read from disk), and a
// package pattern ("./internal/...", "./examples/go-taint", ".") that
// expands to the non-test .go files of every matching directory. The
// returned slices are parallel; a pattern that matches no Go files
// yields one entry carrying the load error.
func (frontEnd) Load(sources []driver.Source) ([]driver.Source, []error) {
	var files []driver.Source
	var errs []error
	seen := map[string]bool{}
	add := func(s driver.Source, err error) {
		if err == nil && s.Text == "" && seen[s.Path] {
			return // overlapping patterns name the file once
		}
		seen[s.Path] = true
		files = append(files, s)
		errs = append(errs, err)
	}
	for _, s := range sources {
		switch {
		case s.Text != "":
			add(s, nil)
		case strings.HasSuffix(s.Path, ".go"):
			data, err := os.ReadFile(s.Path)
			add(driver.Source{Path: s.Path, Text: string(data)}, err)
		default:
			paths, err := expandPattern(s.Path)
			if err != nil {
				add(driver.Source{Path: s.Path}, err)
				continue
			}
			for _, p := range paths {
				data, rerr := os.ReadFile(p)
				add(driver.Source{Path: p, Text: string(data)}, rerr)
			}
		}
	}
	return files, errs
}

// expandPattern lists the buildable .go files a package pattern names.
// A trailing "..." names the directory and every directory under it, as
// it does for the go tool.
func expandPattern(pat string) ([]string, error) {
	base, recursive := strings.CutSuffix(pat, "...")
	if recursive {
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
	}
	info, err := os.Stat(base)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("gofront: %s is not a directory or .go file", pat)
	}
	out, err := goTree(base, recursive)
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("gofront: no Go files in %s", pat)
	}
	return out, err
}

// goTree lists the buildable .go files of base and, when recursive, of
// every directory under it that the go tool would walk into
// (driver.SkipTreeDir), directory by directory in sorted order. A
// directory under base that is removed during the listing is left out.
func goTree(base string, recursive bool) ([]string, error) {
	dirs := []string{base}
	if recursive {
		dirs = nil
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			switch {
			case err != nil && path != base && errors.Is(err, os.ErrNotExist):
				return nil
			case err != nil:
				return err
			case !d.IsDir():
				return nil
			case path != base && driver.SkipTreeDir(d.Name()):
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	var out []string
	for _, dir := range dirs {
		files, err := goFilesIn(dir)
		if err != nil {
			if _, statErr := os.Stat(dir); dir != base && errors.Is(statErr, os.ErrNotExist) {
				continue
			}
			return nil, err
		}
		out = append(out, files...)
	}
	return out, nil
}

// goFilesIn lists the .go files in dir that a build with cgo disabled
// compiles, sorted: go/build applies the file name and //go:build
// constraints. Test files are excluded: the corpus is the shipped
// program, as the paper analyzes program sources, not their harnesses.
// A file go/build finds fault with stays listed, for the parser and the
// type checker to report: go/build keeps one that fails to parse in
// GoFiles, and lists one whose //go:build line it cannot read in
// InvalidGoFiles alone.
func goFilesIn(dir string) ([]string, error) {
	noCgo()
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if err != nil && len(bp.InvalidGoFiles) == 0 && !errors.As(err, &noGo) {
		return nil, err
	}
	var out []string
	for _, name := range slices.Concat(bp.GoFiles, bp.InvalidGoFiles) {
		path := filepath.Join(dir, name)
		if !slices.Contains(out, path) && !slices.Contains(bp.IgnoredGoFiles, name) && !strings.HasSuffix(name, "_test.go") {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}
