package main

// -watch mode: cqual polls the list of source files the active front
// end reads from a directory tree (driver.FrontEnd.Tree: the .c files for
// C, go/build's selection under dir/... for Go) and stamps each with its
// mtime and size (stdlib only, no platform notification APIs). Whenever
// a file appears, changes, or disappears, it runs over those files
// exactly what a one-shot cqual with the same flags runs, printing what
// it prints under a "watch: run N: K file(s)" header.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/driver"
)

// watchInterval is how often the watcher stamps the tree.
const watchInterval = 500 * time.Millisecond

// runWatch runs the poll loop over dir until SIGINT/SIGTERM and returns
// the process exit status.
func runWatch(local *localRun, dir string) int {
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		fmt.Fprintf(os.Stderr, "cqual: -watch %s: not a directory\n", dir)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := newWatcher(dir, local, os.Stdout, os.Stderr)
	// Every re-analysis becomes a structured slog line on stderr,
	// keeping stdout reserved for the human report.
	w.log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	fmt.Printf("cqual: watching %s every %v (lang %s, mode %s)\n",
		dir, watchInterval, local.cfg.Lang, local.cfg.Mode())
	if err := w.run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "cqual: watch:", err)
		return 1
	}
	fmt.Printf("cqual: watch: %d poll(s), %d re-analysis(es), %d front-end failure(s)\n",
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

// watcher polls one directory and runs the local analysis over the
// changed source set. Its counters feed the shutdown summary; each run
// also logs one watch_run record.
type watcher struct {
	dir         string
	local       *localRun
	out, errOut io.Writer
	log         *slog.Logger
	fe          driver.FrontEnd
	seen        map[string]fileStamp
	runs        int

	polls      int // watch iterations (scan attempts)
	reanalyses int // polls that ran the pipeline
	feFailures int // runs the front end rejected
}

// newWatcher watches dir for the source files of the front end that
// local's config selects, which Config.Check has accepted.
func newWatcher(dir string, local *localRun, out, errOut io.Writer) *watcher {
	fe, _ := driver.LookupFrontEnd(local.cfg.Lang)
	return &watcher{
		dir:    dir,
		local:  local,
		out:    out,
		errOut: errOut,
		log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		fe:     fe,
		seen:   make(map[string]fileStamp),
	}
}

// scan stamps every source file the front end lists under the watched
// tree and reports whether the set differs from the last scan.
func (w *watcher) scan() (paths []string, changed bool, err error) {
	listed, err := w.fe.Tree(w.dir)
	if err != nil {
		return nil, false, err
	}
	now := make(map[string]fileStamp, len(listed))
	for _, path := range listed {
		info, err := os.Lstat(path)
		if err != nil {
			continue // deleted since the listing; next poll settles it
		}
		now[path] = fileStamp{mod: info.ModTime(), size: info.Size()}
		paths = append(paths, path)
	}
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
		fmt.Fprintf(w.out, "watch: no %s files in %s\n", strings.Join(w.fe.Extensions(), "/"), w.dir)
		return false, nil
	}
	w.reanalyses++
	fmt.Fprintf(w.out, "watch: run %d: %d file(s)\n", w.runs, len(paths))
	res, _ := w.local.run(ctx, paths, w.out, w.errOut)
	switch {
	case res == nil:
		// run has printed the pipeline's error.
		return true, fmt.Errorf("run %d failed", w.runs)
	case res.Report == nil:
		w.feFailures++
		w.log.Warn("re-analysis rejected by front end", "event", "watch_run",
			"run", w.runs, "files", len(paths), "errors", len(res.Errors()))
	default:
		conflicts := 0
		for _, d := range res.Diagnostics {
			if d.Code == "qualifier-conflict" {
				conflicts++
			}
		}
		w.log.Info("re-analysis complete", "event", "watch_run",
			"run", w.runs, "files", len(paths), "conflicts", conflicts,
			"solve", res.Timings.Solve.Round(time.Microsecond).String())
	}
	return true, nil
}

// run is the watch loop: poll at the interval until the context ends.
func (w *watcher) run(ctx context.Context) error {
	tick := time.NewTicker(watchInterval)
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
