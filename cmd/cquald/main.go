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
//	       [-session-entries n]
//	       [-pprof] [-slow-request d] [-trace-entries n]
//	       [-journal-entries n] [-retain-slowest n] [-retain-sample n]
//	       [-slo endpoint=objective,...]
//	cquald -watch DIR [-watch-interval d] [-lang l]
//	       [-poly] [-polyrec] [-simplify] [-uninit]
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
// 1-in-K sampled requests (?trace=1 forces retention), retrievable at
// /v1/traces/<id> after the fact.
// -trace-entries bounds the retention ring; -retain-slowest and
// -retain-sample tune the policy. GET /v1/events serves the structured
// event journal (session evictions, cache churn, slow requests;
// ?since=<seq> resumes, ?wait=1 long-polls), bounded by
// -journal-entries. GET /v1/introspect dumps live state: retained
// sessions with their last run's solve stats,
// cache occupancy, worker depths, ring and journal stats, SLO burn
// rates. -slo declares per-endpoint latency objectives
// ("analyze=250ms,metrics=50ms"); burn-rate gauges over 5m/1h/6h
// windows are computed at scrape time. The cqualtop command renders all
// of this as a live dashboard.
//
// -pprof mounts the net/http/pprof handlers under /debug/pprof/;
// -slow-request logs requests slower than the threshold (the records
// also land in the event journal). SIGINT/SIGTERM drain in-flight
// requests before exiting.
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
// (-lang, -poly, -polyrec, -simplify, -uninit, -analysis, -prelude)
// mirror cqual and apply only to -watch, which fixes the configuration
// for the process's lifetime.
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
	"strings"
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
	resultEntries := flag.Int("result-cache-entries", 1024, "result cache: max entries (0 = unbounded)")
	resultBytes := flag.Int64("result-cache-bytes", 256<<20, "result cache: max stored report bytes (0 = unbounded)")
	sessionEntries := flag.Int("session-entries", 0, "retained sessions (0 = 64)")
	enablePprof := flag.Bool("pprof", false, "mount the net/http/pprof profiling handlers under /debug/pprof/")
	slowRequest := flag.Duration("slow-request", 0, "log analyze requests at or above this latency (0 = disabled)")
	traceEntries := flag.Int("trace-entries", 0, "flight-recorder retained-trace ring entries (0 = 32)")
	journalEntries := flag.Int("journal-entries", 0, "structured event journal entries (0 = 1024)")
	retainSlowest := flag.Int("retain-slowest", 0, "retain the first n traces per latency bucket, then only new bucket maxima (0 = 2, negative disables)")
	retainSample := flag.Int("retain-sample", 0, "retain one trace in every n requests as a baseline sample (0 = 64, negative disables)")
	sloFlag := flag.String("slo", "", `per-endpoint latency objectives as "endpoint=objective,..." (e.g. "analyze=250ms,metrics=50ms"; default analyze=250ms)`)
	sloTarget := flag.Float64("slo-target", 0, "SLO success-fraction objective shared by all endpoints (0 = 0.99)")
	watch := flag.String("watch", "", "watch this directory of source files instead of serving HTTP; re-analyze the whole tree on change")
	watchInterval := flag.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch")
	lang := flag.String("lang", "", "with -watch: source language of the watched files (c, go; default c)")
	poly := flag.Bool("poly", false, "with -watch: polymorphic qualifier inference")
	polyrec := flag.Bool("polyrec", false, "with -watch: polymorphic recursion (implies -poly)")
	simplify := flag.Bool("simplify", false, "with -watch: simplify schemes")
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
			poly: *poly, polyrec: *polyrec, simplify: *simplify,
			uninit: *uninit, lang: *lang,
			analyses: *analysisFlag, preludes: *preludeFlag,
		}))
	}
	for _, f := range []struct {
		set  bool
		name string
	}{
		{*poly, "-poly"}, {*polyrec, "-polyrec"}, {*simplify, "-simplify"},
		{*uninit, "-uninit"}, {*analysisFlag != "", "-analysis"}, {*preludeFlag != "", "-prelude"},
		{*lang != "", "-lang"},
	} {
		if f.set {
			fmt.Fprintf(os.Stderr, "cquald: %s only applies to -watch; HTTP requests carry their own mode flags\n", f.name)
			os.Exit(2)
		}
	}

	slos, err := parseSLOs(*sloFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cquald: %v\n", err)
		os.Exit(2)
	}
	if *sloTarget < 0 || *sloTarget >= 1 {
		fmt.Fprintln(os.Stderr, "cquald: -slo-target must be in [0, 1)")
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *timeout,
		ResultEntries:  *resultEntries,
		ResultBytes:    *resultBytes,
		SessionEntries: *sessionEntries,
		EnablePprof:    *enablePprof,
		SlowRequest:    *slowRequest,
		TraceEntries:   *traceEntries,
		JournalEntries: *journalEntries,
		RetainSlowest:  *retainSlowest,
		RetainSample:   *retainSample,
		SLOs:           slos,
		SLOTarget:      *sloTarget,
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

// parseSLOs parses the -slo flag: a comma-separated list of
// endpoint=objective pairs ("analyze=250ms,metrics=50ms"). An empty
// flag returns nil, leaving the server's default (analyze=250ms); a
// present flag replaces the default outright, so "-slo ”" cannot be
// used to disable it — pass an objective for no endpoint you care
// about instead.
func parseSLOs(s string) (map[string]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	slos := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		endpoint, obj, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || endpoint == "" {
			return nil, fmt.Errorf("-slo: %q is not endpoint=objective", part)
		}
		d, err := time.ParseDuration(obj)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("-slo: bad objective in %q (want a positive duration like 250ms)", part)
		}
		slos[endpoint] = d
	}
	return slos, nil
}
