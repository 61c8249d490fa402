// Command cquald is the resident qualifier-analysis daemon: the const
// inference of Section 4 of "A Theory of Type Qualifiers" (PLDI 1999) as
// a long-running HTTP/JSON service with a content-addressed result cache
// (see internal/server and internal/cache).
//
// Usage:
//
//	cquald [-addr host:port] [-max-concurrent n]
//	       [-timeout d] [-shutdown-timeout d]
//	       [-result-cache-entries n] [-result-cache-bytes n] [-pprof]
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
// serves the structured event journal (result-cache evictions,
// pipeline failures; ?since=<seq> resumes, ?wait=1 long-polls), 1024
// events deep and mirrored to the log. GET /v1/introspect dumps live
// state: result-cache occupancy, worker depths, ring and journal
// stats, and the burn rates of the analyze SLO (250ms for 99% of
// requests), whose 5m/1h/6h burn-rate gauges are computed at scrape
// time. The cqualtop command renders all of this as a live dashboard.
//
// -pprof mounts the net/http/pprof handlers under /debug/pprof/.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// A request carrying a "session" id runs without reading or writing
// the result cache and answers X-Cache: session; the daemon keeps
// nothing per session, and the report equals a plain request's.
//
// The daemon takes no run-mode flags: each request carries its own
// settings, and `cqual -watch DIR` re-analyzes a directory on change
// without a daemon.
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
	enablePprof := flag.Bool("pprof", false, "mount the net/http/pprof profiling handlers under /debug/pprof/")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "cquald: unexpected arguments; the daemon takes sources over HTTP, not the command line")
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *timeout,
		ResultEntries:  *resultEntries,
		ResultBytes:    *resultBytes,
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
