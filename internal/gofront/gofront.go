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
// construction. The engine is monomorphic: -poly/-polyrec are rejected.
package gofront

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/driver"
)

// frontEnd implements driver.FrontEnd for Go.
type frontEnd struct{}

func init() { driver.RegisterFrontEnd(frontEnd{}) }

func (frontEnd) Lang() string         { return "go" }
func (frontEnd) Extensions() []string { return []string{".go"} }

// Check rejects the C-only modes: the Go engine is monomorphic (one
// shared signature per function, Section 4.2's C type system analogue)
// and has no flow-sensitive initialization checker.
func (frontEnd) Check(cfg driver.Config) error {
	if cfg.Options.Poly || cfg.Options.PolyRec {
		return fmt.Errorf("gofront: the Go front end is monomorphic — every function gets one shared qualifier signature, so -poly/-polyrec have nothing to instantiate; polymorphic inference for Go is out of scope")
	}
	if cfg.Options.Simplify {
		return fmt.Errorf("gofront: -simplify applies to polymorphic schemes and is not supported for -lang go")
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

// expandPattern lists the buildable .go files a package pattern names,
// sorted per directory. A trailing "..." walks subdirectories the way
// the go tool does, skipping testdata, vendor, and hidden or
// underscore-prefixed directories.
func expandPattern(pat string) ([]string, error) {
	recursive := false
	base := pat
	if strings.HasSuffix(base, "...") {
		recursive = true
		base = strings.TrimSuffix(base, "...")
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
	var dirs []string
	if recursive {
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDirName(d.Name()) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		dirs = []string{base}
	}
	sort.Strings(dirs)
	var out []string
	for _, dir := range dirs {
		files, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, files...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gofront: no Go files in %s", pat)
	}
	return out, nil
}

// skipDirName reports whether the go tool would never descend into a
// directory of this name while expanding "...".
func skipDirName(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// goFilesIn lists the buildable .go files directly in dir, sorted.
// Test files are excluded: the corpus is the shipped program, as the
// paper analyzes program sources, not their harnesses.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}
