// Command cquald is the resident qualifier-analysis daemon: the const
// inference of Section 4 of "A Theory of Type Qualifiers" (PLDI 1999) as
// a long-running HTTP/JSON service with a content-addressed result cache
// (see internal/server and internal/cache).
//
// Usage:
//
//	cquald [-addr host:port] [-max-concurrent n]
//	       [-timeout d] [-shutdown-timeout d]
//	       [-result-cache-entries n] [-result-cache-bytes n]
//	       [-session-entries n] [-pprof]
//	cquald -watch DIR [-watch-interval d] [-lang l]
//	       [-poly] [-uninit]
//	       [-analysis LIST] [-prelude FILES]
//
// POST a batch of sources to /v1/analyze and receive the same JSON
// report `cqual -json` prints; repeated requests for unchanged sources
// are answered from cache (X-Cache: hit); any other request runs the
// whole pipeline. /healthz and /metrics serve liveness and counters;
// /metrics answers Prometheus text exposition (with latency histograms)
// to Accept: text/plain or ?format=prometheus, and OpenMetrics 1.0 with
// trace-id exemplars to Accept: application/openmetrics-text or
// ?format=openmetrics.
//
// Every analyze response carries an X-Trace-Id, and every request
// records spans into the flight recorder: at request end a
// tail-retention policy keeps the traces of slow, failed, shed, and
// 1-in-64 sampled requests (?trace=1 forces retention) in a 32-entry
// ring, retrievable at /v1/traces/<id> after the fact. GET /v1/events
// serves the structured event journal (session and result-cache
// evictions, pipeline failures; ?since=<seq> resumes, ?wait=1
// long-polls), 1024 events deep and mirrored to the log. GET
// /v1/introspect dumps live state: retained sessions with their last
// run's solve stats, cache occupancy, worker depths, ring and journal
// stats, and the burn rates of the analyze SLO (250ms for 99% of
// requests), whose 5m/1h/6h burn-rate gauges are computed at scrape
// time. The cqualtop command renders all of this as a live dashboard.
//
// -pprof mounts the net/http/pprof handlers under /debug/pprof/.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Requests carrying a "session" id share a retained session (bounded by
// -session-entries): the corpus's runs serialize, bypass the result
// cache (X-Cache: session), and show up in /v1/introspect. Each run
// solves cold; its report equals a plain request's.
//
// With -watch DIR the daemon serves no HTTP at all: it walks DIR
// recursively for the active front end's source files (.c by default,
// .go with -lang go; stdlib mtime/size polling, -watch-interval apart)
// and re-runs the whole pipeline over the tree whenever a file
// appears, changes, or disappears, printing conflict diagnostics with
// their flow paths plus a per-run summary to stdout. The mode flags
// (-lang, -poly, -uninit, -analysis, -prelude) mirror cqual
// and apply only to -watch, which fixes the configuration for the
// process's lifetime.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/gofront" // registers the -lang go front end
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8710", "listen address (host:port; port 0 picks a free port)")
	maxConcurrent := flag.Int("max-concurrent", 0, "simultaneous analyses (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline including queue time (negative = none)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGINT/SIGTERM")
	resultEntries := flag.Int("result-cache-entries", server.DefaultResultEntries,
		fmt.Sprintf("result cache: max entries (0 = %d)", server.DefaultResultEntries))
	resultBytes := flag.Int64("result-cache-bytes", server.DefaultResultBytes,
		fmt.Sprintf("result cache: max stored report bytes (0 = %d MiB)", server.DefaultResultBytes>>20))
	sessionEntries := flag.Int("session-entries", 0, "retained sessions (0 = 64)")
	enablePprof := flag.Bool("pprof", false, "mount the net/http/pprof profiling handlers under /debug/pprof/")
	watch := flag.String("watch", "", "watch this directory of source files instead of serving HTTP; re-analyze the whole tree on change")
	watchInterval := flag.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch")
	lang := flag.String("lang", "", "with -watch: source language of the watched files (c, go; default c)")
	poly := flag.Bool("poly", false, "with -watch: polymorphic qualifier inference")
	uninit := flag.Bool("uninit", false, "with -watch: also run the definite-initialization check")
	analysisFlag := flag.String("analysis", "", "with -watch: comma-separated qualifier analyses (default const)")
	preludeFlag := flag.String("prelude", "", "with -watch: comma-separated prelude files")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "cquald: unexpected arguments; the daemon takes sources over HTTP, not the command line")
		os.Exit(2)
	}

	if *watch != "" {
		os.Exit(runWatchMode(*watch, *watchInterval, watchOptions{
			poly: *poly, uninit: *uninit, lang: *lang,
			analyses: *analysisFlag, preludes: *preludeFlag,
		}))
	}
	for _, f := range []struct {
		set  bool
		name string
	}{
		{*poly, "-poly"}, {*uninit, "-uninit"}, {*analysisFlag != "", "-analysis"}, {*preludeFlag != "", "-prelude"},
		{*lang != "", "-lang"},
	} {
		if f.set {
			fmt.Fprintf(os.Stderr, "cquald: %s only applies to -watch; HTTP requests carry their own mode flags\n", f.name)
			os.Exit(2)
		}
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *timeout,
		ResultEntries:  *resultEntries,
		ResultBytes:    *resultBytes,
		SessionEntries: *sessionEntries,
		EnablePprof:    *enablePprof,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cquald: listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv}

	// The resolved address is logged (not just the flag value) so that
	// port 0 — used by the end-to-end tests — is observable.
	log.Printf("cquald: listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("cquald: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("cquald: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		log.Printf("cquald: shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cquald: serve: %v", err)
		os.Exit(1)
	}
	log.Printf("cquald: bye")
}
