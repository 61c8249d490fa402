package main

// -watch mode: instead of serving HTTP, the daemon walks a directory
// tree for the active front end's source files (stdlib only —
// filepath.WalkDir plus mtime/size stamps, no platform notification
// APIs) and runs the pipeline (driver.RunContext) over the whole tree
// whenever a file appears, changes, or disappears. Each run prints the
// conflict diagnostics with their step-by-step flow paths and a
// one-line size and solve-time summary.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/constinfer"
	"repro/internal/driver"
)

// watchOptions carries the cqual-style mode flags into watch mode.
type watchOptions struct {
	poly, polyrec, simplify, uninit bool
	lang                            string // front-end language ("" = c)
	analyses                        string // comma-separated
	preludes                        string // comma-separated file paths
}

// runWatchMode validates the flags, builds the fixed run config, and
// runs the poll loop until SIGINT/SIGTERM. Returns the process exit
// status.
func runWatchMode(dir string, interval time.Duration, opts watchOptions) int {
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		fmt.Fprintf(os.Stderr, "cquald: -watch %s: not a directory\n", dir)
		return 2
	}
	if interval <= 0 {
		fmt.Fprintln(os.Stderr, "cquald: -watch-interval must be positive")
		return 2
	}
	var analyses []string
	for _, part := range strings.Split(opts.analyses, ",") {
		if part = strings.TrimSpace(part); part != "" {
			analyses = append(analyses, part)
		}
	}
	for _, name := range analyses {
		if _, ok := analysis.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "cquald: unknown analysis %q (registered: %s)\n",
				name, strings.Join(analysis.Names(), ", "))
			return 2
		}
	}
	var preludes []driver.PreludeFile
	for _, path := range strings.Split(opts.preludes, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cquald:", err)
			return 2
		}
		preludes = append(preludes, driver.PreludeFile{Path: path, Text: string(text)})
	}
	fe, ok := driver.LookupFrontEnd(opts.lang)
	if !ok {
		fmt.Fprintf(os.Stderr, "cquald: unknown language %q (registered: %s)\n",
			opts.lang, strings.Join(driver.FrontEndLangs(), ", "))
		return 2
	}
	cfg := driver.Config{
		Options: constinfer.Options{
			Poly:     opts.poly || opts.polyrec,
			PolyRec:  opts.polyrec,
			Simplify: opts.simplify,
		},
		Lang:     fe.Lang(),
		Uninit:   opts.uninit,
		Analyses: analyses,
		Preludes: preludes,
	}
	if err := fe.Check(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cquald:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("cquald: watching %s every %v (lang %s, mode %s)\n", dir, interval, fe.Lang(), cfg.Mode())
	w := newWatcher(dir, cfg, os.Stdout)
	w.exts = fe.Extensions()
	// Every re-analysis becomes a structured slog line on stderr,
	// keeping stdout reserved for the human report.
	w.log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := w.run(ctx, interval); err != nil {
		fmt.Fprintln(os.Stderr, "cquald: watch:", err)
		return 1
	}
	fmt.Printf("cquald: watch: %d poll(s), %d re-analysis(es), %d front-end failure(s)\n",
		w.polls, w.reanalyses, w.feFailures)
	return 0
}

// fileStamp is the change detector for one source file. Content is not
// hashed here: a stale mtime+size pair only costs one redundant
// analysis.
type fileStamp struct {
	mod  time.Time
	size int64
}

// watcher polls one directory and runs the pipeline over the changed
// source set. Its counters feed the shutdown summary; each run also
// logs one watch_run record.
type watcher struct {
	dir  string
	cfg  driver.Config
	out  io.Writer
	log  *slog.Logger
	exts []string // source extensions claimed by the front end
	seen map[string]fileStamp
	runs int

	polls      int // watch iterations (scan attempts)
	reanalyses int // polls that ran the pipeline
	feFailures int // runs the front end rejected
}

func newWatcher(dir string, cfg driver.Config, out io.Writer) *watcher {
	return &watcher{
		dir:  dir,
		cfg:  cfg,
		out:  out,
		log:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		exts: []string{".c"},
		seen: make(map[string]fileStamp),
	}
}

// skipWatchDir reports whether a subdirectory is outside the corpus:
// hidden, underscore-prefixed, vendored, or test fixtures — the same
// set the go tool ignores.
func skipWatchDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "vendor" || name == "testdata"
}

// scan stamps every source file under the watched tree whose extension
// the active front end claims and reports whether the set differs from
// the last scan.
func (w *watcher) scan() (paths []string, changed bool, err error) {
	now := make(map[string]fileStamp)
	err = filepath.WalkDir(w.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if path == w.dir {
				return err
			}
			return nil // a subtree vanished mid-walk; next poll settles it
		}
		if d.IsDir() {
			if path != w.dir && skipWatchDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(d.Name())
		claimed := false
		for _, e := range w.exts {
			if ext == e {
				claimed = true
				break
			}
		}
		if !claimed || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // deleted between WalkDir and Stat; next poll settles it
		}
		now[path] = fileStamp{mod: info.ModTime(), size: info.Size()}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	sort.Strings(paths)
	if len(now) != len(w.seen) {
		changed = true
	} else {
		for p, st := range now {
			if w.seen[p] != st {
				changed = true
				break
			}
		}
	}
	w.seen = now
	return paths, changed, nil
}

// poll runs one scan-and-maybe-analyze step; it reports whether an
// analysis ran.
func (w *watcher) poll(ctx context.Context) (bool, error) {
	w.polls++
	paths, changed, err := w.scan()
	if err != nil {
		return false, err
	}
	if !changed {
		return false, nil
	}
	w.runs++
	if len(paths) == 0 {
		fmt.Fprintf(w.out, "watch: no %s files in %s\n", strings.Join(w.exts, "/"), w.dir)
		return false, nil
	}
	w.reanalyses++
	res, err := driver.RunContext(ctx, w.cfg, driver.FileSources(paths...))
	if err != nil {
		return false, err
	}
	w.report(res, paths)
	return true, nil
}

// report prints one analysis outcome: front-end errors or the conflict
// diagnostics with their flow paths, then the summary lines.
func (w *watcher) report(res *driver.Result, paths []string) {
	fmt.Fprintf(w.out, "watch: run %d: %d file(s)\n", w.runs, len(paths))
	if res.Report == nil {
		for _, d := range res.Errors() {
			fmt.Fprintln(w.out, "  "+strings.ReplaceAll(d.String(), "\n", "\n  "))
		}
		fmt.Fprintln(w.out, "  (front-end failure)")
		w.feFailures++
		w.log.Warn("re-analysis rejected by front end", "event", "watch_run",
			"run", w.runs, "files", len(paths), "errors", len(res.Errors()))
		return
	}
	conflicts := 0
	for _, d := range res.Diagnostics {
		if d.Code == "qualifier-conflict" {
			conflicts++
			fmt.Fprintln(w.out, "  "+strings.ReplaceAll(d.String(), "\n", "\n  "))
		}
	}
	solve := res.Timings.Solve.Round(time.Microsecond)
	fmt.Fprintf(w.out, "  %d function(s), %d constraint(s), %d conflict(s)\n",
		res.Report.Functions, res.Report.Constraints, conflicts)
	fmt.Fprintf(w.out, "  solve %v\n", solve)
	w.log.Info("re-analysis complete", "event", "watch_run",
		"run", w.runs, "files", len(paths), "conflicts", conflicts, "solve", solve.String())
}

// run is the watch loop: poll at the interval until the context ends.
func (w *watcher) run(ctx context.Context, interval time.Duration) error {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if _, err := w.poll(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}
