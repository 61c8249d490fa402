// Package server wraps the staged analysis driver in a long-running
// HTTP/JSON service — the resident form of the paper's Section 4.4 batch
// experiment. POST /v1/analyze accepts a batch of C sources and returns
// the same JSON report `cqual -json` emits; repeated requests for
// unchanged sources are served from a content-addressed result cache;
// every other request runs the whole pipeline.
//
// Endpoints:
//
//	POST /v1/analyze  — analyze a batch of sources; the response body is
//	                    byte-identical to cqual -json over the same
//	                    inputs, X-Cache reports hit, miss or session
//	                    (a request naming a session runs uncached);
//	                    X-Trace-Id identifies the request. Every request records
//	                    spans into the flight recorder; at request end a
//	                    tail-retention policy decides whether the trace
//	                    is kept (slow, failed, shed, and sampled
//	                    requests are; ?trace=1 forces it)
//	GET  /healthz     — liveness probe
//	GET  /metrics     — JSON counters by default: requests, cache stats,
//	                    per-stage timing aggregates, per-analysis request
//	                    and diagnostic counts. Accept: text/plain (or
//	                    ?format=prometheus) selects Prometheus text with
//	                    the latency histograms; Accept:
//	                    application/openmetrics-text (or
//	                    ?format=openmetrics) selects OpenMetrics 1.0 with
//	                    trace-id exemplars on histogram buckets
//	GET  /v1/traces/<id> — the Chrome trace-event JSON of a retained
//	                    request (tail-retained or ?trace=1-forced)
//	GET  /v1/events   — the structured event journal: result-cache
//	                    evictions, pipeline failures.
//	                    ?since=<seq> resumes after a known event;
//	                    ?wait=1 long-polls until something newer arrives
//	GET  /v1/introspect — live server state: result-cache occupancy,
//	                    worker/queue depths, retention ring and journal
//	                    stats, the analyze SLO's burn rates
//	/debug/pprof/     — net/http/pprof profiling handlers, mounted only
//	                    when Config.EnablePprof is set
//
// The metrics scrape path is lock-free: every counter the handler reads
// is an atomic (or an obs.Registry series, which is atomics underneath),
// so a scraper polling /metrics never contends with in-flight analyses.
// The flight recorder keeps that property: retention decisions and ring
// reads are atomics too (see obs.Recorder); only the event journal takes
// a mutex, and only for service-level events, never per constraint.
//
// A concurrency limiter bounds simultaneous analyses so N clients share
// the CPUs instead of oversubscribing them; each request runs under a deadline enforced at pipeline stage
// boundaries. Graceful shutdown is the http.Server.Shutdown of the
// enclosing daemon (cmd/cquald): the listener closes, in-flight requests
// drain.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/driver"
	"repro/internal/obs"
)

// Config sizes the server: concurrency limit, deadlines, and cache
// bounds. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent bounds simultaneous analyses (0 = GOMAXPROCS).
	MaxConcurrent int
	// RequestTimeout is the per-request deadline including queue time
	// (0 = 30s; negative = no deadline).
	RequestTimeout time.Duration
	// ResultEntries/ResultBytes bound the request-level result cache
	// (0 = DefaultResultEntries / DefaultResultBytes).
	ResultEntries int
	ResultBytes   int64
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: the endpoints expose goroutine
	// stacks and heap contents, so they are opt-in.
	EnablePprof bool
}

// DefaultRequestTimeout is the per-request deadline when none is
// configured.
const DefaultRequestTimeout = 30 * time.Second

// DefaultResultEntries and DefaultResultBytes bound the result cache when
// the configuration leaves ResultEntries or ResultBytes zero.
const (
	DefaultResultEntries = 1024
	DefaultResultBytes   = 256 << 20
)

// maxRequestBytes caps an analyze request body; a larger body is a 413.
const maxRequestBytes = 64 << 20

// analyzeObjective is the latency objective of the analyze endpoint's
// SLO, the one SLO the server tracks (at obs.SLOTarget).
const analyzeObjective = 250 * time.Millisecond

// Server is the analysis service. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg     Config
	results *cache.ResultCache
	sem     chan struct{}
	mux     *http.ServeMux
	start   time.Time

	// Every aggregate below is an atomic or an obs.Registry series
	// (atomics underneath): the /metrics handler takes no lock.
	requests *obs.Counter // analyze requests received
	analyses *obs.Counter // analyses actually run (result-cache misses)
	failures *obs.Counter // requests answered with a non-200 status
	timeouts *obs.Counter // requests that hit their deadline
	inFlight atomic.Int64 // analyze requests currently being served

	stageRuns atomic.Uint64             // completed runs contributing to the stage sums
	stageHist map[string]*obs.Histogram // per-stage latency by driver stage name, seconds
	reqHist   map[string]*obs.Histogram // end-to-end latency by cache hit/miss/session

	// Summed solver system sizes (see constraint.SolveStats).
	solverVars, solverConstraints *obs.Counter

	// perAnalysis is keyed by registered analysis name and fully
	// populated at New — the map is never written afterwards, so
	// handlers read and bump it without a lock.
	perAnalysis map[string]*analysisCounters

	// endpoints is the per-endpoint RED instrumentation (requests,
	// errors, duration, and the analyze SLO tracker), fully populated at
	// New.
	endpoints map[string]*endpointMetrics

	reg      *obs.Registry
	traceSeq atomic.Uint64
	recorder *obs.Recorder
	journal  *obs.Journal
	retained *obs.Counter // traces admitted to the retention ring
}

// endpointMetrics is one endpoint's RED slice: rate, errors, duration,
// plus the SLO tracker on the analyze endpoint.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	hist     *obs.Histogram
	slo      *obs.SLOTracker
}

// analysisCounters tracks load per registered qualifier analysis.
type analysisCounters struct {
	requests    *obs.Counter // analyze requests selecting the analysis
	diagnostics *obs.Counter // diagnostics the analysis produced (cache misses only)
}

// New builds a server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.ResultEntries == 0 {
		cfg.ResultEntries = DefaultResultEntries
	}
	if cfg.ResultBytes == 0 {
		cfg.ResultBytes = DefaultResultBytes
	}
	s := &Server{
		cfg:         cfg,
		results:     cache.NewResultCache(cfg.ResultEntries, cfg.ResultBytes),
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		perAnalysis: make(map[string]*analysisCounters),
		endpoints:   make(map[string]*endpointMetrics),
		reg:         obs.NewRegistry(),
		journal:     obs.NewJournal(),
		recorder:    obs.NewRecorder(),
	}
	s.results.OnEvict(func(k cache.Key) {
		s.journal.Append("cache_evict", "info", "result-cache entry evicted",
			"cache", "result", "key", fmt.Sprintf("%x", k[:6]))
	})
	s.registerMetrics()
	s.mux.HandleFunc("/v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/traces/", s.instrument("traces", s.handleTrace))
	s.mux.HandleFunc("/v1/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("/v1/introspect", s.instrument("introspect", s.handleIntrospect))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// registerMetrics creates every Prometheus series. All labeled families
// are fully enumerated here — per-analysis from the analysis registry,
// per-stage from the pipeline — so the serving paths never allocate a
// series and never take a registration lock.
func (s *Server) registerMetrics() {
	r := s.reg
	s.requests = r.NewCounter("cquald_requests_total", "Analyze requests received.")
	s.analyses = r.NewCounter("cquald_analyses_total", "Analyses actually run (result-cache misses).")
	s.failures = r.NewCounter("cquald_failures_total", "Requests answered with a non-200 status.")
	s.timeouts = r.NewCounter("cquald_timeouts_total", "Requests that hit their deadline.")
	r.NewGaugeFunc("cquald_in_flight", "Analyze requests currently being served.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.NewGaugeFunc("cquald_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	stats, lbl := s.results.Stats, obs.L("cache", "result")
	r.NewGaugeFunc("cquald_cache_hits", "Cache hits.", func() float64 { return float64(stats().Hits) }, lbl)
	r.NewGaugeFunc("cquald_cache_misses", "Cache misses.", func() float64 { return float64(stats().Misses) }, lbl)
	r.NewGaugeFunc("cquald_cache_evictions", "Cache evictions.", func() float64 { return float64(stats().Evictions) }, lbl)
	r.NewGaugeFunc("cquald_cache_entries", "Entries resident in the cache.", func() float64 { return float64(stats().Entries) }, lbl)
	r.NewGaugeFunc("cquald_cache_bytes", "Bytes resident in the cache.", func() float64 { return float64(stats().Bytes) }, lbl)

	s.reqHist = map[string]*obs.Histogram{
		"hit": r.NewHistogram("cquald_request_seconds",
			"End-to-end analyze latency, by result-cache outcome.", nil, obs.L("cache", "hit")),
		"miss": r.NewHistogram("cquald_request_seconds",
			"End-to-end analyze latency, by result-cache outcome.", nil, obs.L("cache", "miss")),
		"session": r.NewHistogram("cquald_request_seconds",
			"End-to-end analyze latency, by result-cache outcome.", nil, obs.L("cache", "session")),
	}
	var names driver.Timings // read for its stage names only
	s.stageHist = map[string]*obs.Histogram{}
	for name := range names.ProgramStages {
		s.stageHist[name] = r.NewHistogram("cquald_stage_seconds",
			"Per-stage pipeline latency over completed analyses.", nil, obs.L("stage", name))
	}

	s.solverVars = r.NewCounter("cquald_solver_vars_total",
		"Summed solver counter over completed analyses (see constraint.SolveStats).")
	s.solverConstraints = r.NewCounter("cquald_solver_constraints_total",
		"Summed solver counter over completed analyses (see constraint.SolveStats).")

	for _, name := range analysis.Names() {
		s.perAnalysis[name] = &analysisCounters{
			requests: r.NewCounter("cquald_analysis_requests_total",
				"Analyze requests selecting the analysis.", obs.L("analysis", name)),
			diagnostics: r.NewCounter("cquald_analysis_diagnostics_total",
				"Diagnostics the analysis produced across completed runs.", obs.L("analysis", name)),
		}
	}

	// Per-endpoint RED series, plus the analyze SLO's burn-rate gauges.
	// Burn rates are computed at scrape time from the tracker's atomic
	// slot ring.
	for _, ep := range endpointNames {
		em := &endpointMetrics{
			requests: r.NewCounter("cquald_endpoint_requests_total",
				"Requests received, by endpoint.", obs.L("endpoint", ep)),
			errors: r.NewCounter("cquald_endpoint_errors_total",
				"Requests answered with status >= 400, by endpoint.", obs.L("endpoint", ep)),
			hist: r.NewHistogram("cquald_endpoint_seconds",
				"End-to-end request latency, by endpoint.", nil, obs.L("endpoint", ep)),
		}
		if ep == "analyze" {
			em.slo = obs.NewSLOTracker(analyzeObjective)
			tr := em.slo
			r.NewGaugeFunc("cquald_slo_objective_seconds",
				"Declared latency objective, by endpoint.",
				tr.Objective, obs.L("endpoint", ep))
			r.NewGaugeFunc("cquald_slo_target",
				"Declared success-fraction objective, by endpoint.",
				func() float64 { return obs.SLOTarget }, obs.L("endpoint", ep))
			for _, w := range obs.BurnWindows {
				w := w
				r.NewGaugeFunc("cquald_slo_burn_rate",
					"Error-budget burn rate over the trailing window (1.0 = budget spent exactly at the sustainable pace).",
					func() float64 { return tr.BurnRate(w) },
					obs.L("endpoint", ep), obs.L("window", obs.WindowLabel(w)))
			}
		}
		s.endpoints[ep] = em
	}

	// Flight-recorder retention counters.
	s.retained = r.NewCounter("cquald_traces_retained_total",
		"Traces admitted to the retention ring.")
	r.NewGaugeFunc("cquald_traces_resident", "Traces resident in the retention ring.",
		func() float64 { return float64(s.recorder.Stats().Resident) })
	r.NewGaugeFunc("cquald_traces_evicted", "Traces evicted from the retention ring.",
		func() float64 { return float64(s.recorder.Stats().Evicted) })
	for _, reason := range obs.RetainReasons {
		reason := reason
		r.NewGaugeFunc("cquald_trace_retention_decisions",
			"Retention policy matches, by reason (a request may match several).",
			func() float64 { return float64(s.recorder.Stats().ByReason[reason]) },
			obs.L("reason", reason))
	}
	r.NewGaugeFunc("cquald_journal_events", "Events currently retained in the journal.",
		func() float64 { return float64(s.journal.Stats().Entries) })
	r.NewGaugeFunc("cquald_journal_dropped", "Events that have fallen off the journal ring.",
		func() float64 { return float64(s.journal.Stats().Dropped) })
}

// endpointNames enumerates the instrumented endpoints, in registration
// order.
var endpointNames = []string{"analyze", "metrics", "traces", "events", "introspect"}

// statusWriter captures the response status for RED accounting and the
// retention decision. A handler that never calls WriteHeader answered
// 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps a handler with the endpoint's RED accounting and SLO
// classification.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		dur := time.Since(began).Seconds()
		failed := sw.status() >= 400
		em.requests.Inc()
		if failed {
			em.errors.Inc()
		}
		em.hist.Observe(dur)
		if em.slo != nil {
			em.slo.Observe(dur, failed)
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// AnalyzeRequest is the POST /v1/analyze body: a batch of named source
// texts plus the cqual mode flags.
type AnalyzeRequest struct {
	Sources []SourceJSON `json:"sources"`
	// Lang selects the front end ("c", "go"); empty means "c". Unknown
	// languages are rejected with 400. With lang "go" the sources are
	// .go file texts analyzed together as one package (package patterns
	// are a local-filesystem concept; the server analyzes
	// request-supplied texts only).
	Lang string `json:"lang,omitempty"`
	// Poly/Uninit mirror the cqual flags; a mode the selected front end
	// rejects (the Go front end takes neither) is a 400.
	Poly   bool `json:"poly,omitempty"`
	Uninit bool `json:"uninit,omitempty"`
	// Simplify is accepted and ignored: polymorphic schemes are always
	// projected. Kept for bench/, removed with the next benchmark
	// change.
	Simplify bool `json:"simplify,omitempty"`
	// PolyRec is rejected: "polyrec": true is a 400, answered before any
	// cache lookup. Kept for bench/replay.go, removed with the next
	// benchmark change.
	PolyRec bool `json:"polyrec,omitempty"`
	// Analyses names the registered qualifier analyses to run together
	// (empty = const). Unknown names are rejected with 400.
	Analyses []string `json:"analyses,omitempty"`
	// Preludes carry qualifier prelude texts declaring library seeds
	// and sinks for the selected analyses.
	Preludes []PreludeJSON `json:"preludes,omitempty"`
	// Session, when set, makes the request a plain run that neither
	// reads nor writes the result cache and answers X-Cache "session";
	// the server keeps nothing per session id. Kept for bench/, removed
	// with the next benchmark change.
	Session string `json:"session,omitempty"`
}

// config is the pipeline configuration the request selects.
func (req *AnalyzeRequest) config() driver.Config {
	preludes := make([]driver.PreludeFile, len(req.Preludes))
	for i, p := range req.Preludes {
		preludes[i] = driver.PreludeFile{Path: p.Path, Text: p.Text}
	}
	return driver.Config{
		Lang:     req.Lang,
		Options:  constinfer.Options{Poly: req.Poly},
		Uninit:   req.Uninit,
		Analyses: req.Analyses,
		Preludes: preludes,
	}
}

// SourceJSON is one in-memory translation unit.
type SourceJSON struct {
	Path string `json:"path"`
	Text string `json:"text"`
}

// PreludeJSON is one in-memory qualifier prelude file.
type PreludeJSON struct {
	Path string `json:"path"`
	Text string `json:"text"`
}

// errorJSON is the body of every non-200 response.
type errorJSON struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failures.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

// nextTraceID mints a request identifier: the server's start time pins
// the process, a sequence number pins the request within it.
func (s *Server) nextTraceID() string {
	return fmt.Sprintf("%x-%d", uint64(s.start.UnixNano()), s.traceSeq.Add(1))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	s.requests.Inc()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)

	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}

	// The flight recorder is always on: every request records spans, and
	// at request end the tail-retention policy decides whether the
	// exported Chrome trace is kept at /v1/traces/<id> — slow, failed,
	// shed, and 1-in-K sampled requests are; ?trace=1
	// forces it. The response body stays byte-identical to the
	// pre-recorder contract — only the header and the ring change.
	tracer := obs.NewTracer(nil)
	fin := &finishState{forced: r.URL.Query().Get("trace") == "1"}
	defer s.finishAnalyze(w, tracer, traceID, fin, began)

	body, err := readBody(w, r)
	if errors.Is(err, errBodyTooLarge) {
		s.fail(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	var req AnalyzeRequest
	if err == nil {
		req, err = decodeRequest(body)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if req.PolyRec {
		s.fail(w, http.StatusBadRequest, `invalid request: field "polyrec" was removed (polymorphic recursion inferred what "poly" infers)`)
		return
	}
	cfg := req.config()
	// Settings the pipeline would refuse are client errors, answered
	// before any hashing, cache lookup or pipeline work.
	if err := cfg.Check(); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Sources) == 0 {
		s.fail(w, http.StatusBadRequest, "no sources")
		return
	}
	sources := make([]driver.Source, len(req.Sources))
	for i, src := range req.Sources {
		if src.Path == "" {
			s.fail(w, http.StatusBadRequest, "source %d has no path", i)
			return
		}
		if src.Text == "" {
			s.fail(w, http.StatusBadRequest, "source %q has no text (the server analyzes request-supplied texts, not server-side files)", src.Path)
			return
		}
		sources[i] = driver.Source{Path: src.Path, Text: src.Text}
	}
	s.countRequests(cfg.AnalysisNames())

	// A session request runs uncached: it neither reads nor writes the
	// result cache, so only the cached path hashes the sources.
	session := req.Session != ""
	var key cache.Key
	if !session {
		key = cache.RequestKey(cfg, sources)
		if report, ok := s.results.Get(key); ok {
			s.writeReport(w, report, "hit")
			fin.cacheState = "hit"
			return
		}
	}

	ctx := obs.WithTracer(r.Context(), tracer)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	// The limiter shares the CPUs across clients; the deadline
	// covers queue time, so a saturated server sheds load instead of
	// stacking it.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.deadline(w, ctx.Err())
		return
	}

	res, err := driver.RunContext(ctx, cfg, sources)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.deadline(w, err)
		} else {
			s.journal.Append("analysis_error", "error", "analysis pipeline failed",
				"trace_id", traceID, "error", err.Error())
			s.fail(w, http.StatusInternalServerError, "analysis failed: %v", err)
		}
		return
	}
	report, err := res.JSON()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	s.analyses.Inc()
	s.countDiagnostics(res.Diagnostics)
	s.recordTimings(&res.Timings, res.Solver)
	if session {
		s.writeReport(w, report, "session")
		fin.cacheState = "session"
		return
	}
	s.results.Put(key, report)
	s.writeReport(w, report, "miss")
	fin.cacheState = "miss"
}

// finishState carries what handleAnalyze learned about the request into
// the deferred finishAnalyze: whether tracing was forced and the cache
// outcome (empty on failed requests, which never reach a report).
type finishState struct {
	forced     bool
	cacheState string
}

// finishAnalyze is the flight recorder's tail: it runs after the
// response is written, decides trace retention now that latency and
// outcome are known, and observes the latency histogram (attaching the
// trace id as the bucket exemplar when the trace was retained).
func (s *Server) finishAnalyze(w http.ResponseWriter, tracer *obs.Tracer, traceID string, fin *finishState, began time.Time) {
	dur := time.Since(began)
	status := http.StatusOK
	if sw, ok := w.(*statusWriter); ok {
		status = sw.status()
	}
	shed := status == http.StatusTooManyRequests || status == http.StatusGatewayTimeout
	exemplar := ""
	retain, reasons := s.recorder.Decide(obs.Sample{
		Seconds: dur.Seconds(),
		Err:     status >= 400 && !shed,
		Shed:    shed,
		Forced:  fin.forced,
	})
	if retain {
		var buf bytes.Buffer
		if tracer.WriteJSON(&buf) == nil {
			s.recorder.Put(traceID, buf.Bytes(), dur.Seconds(), reasons)
			s.retained.Inc()
			exemplar = traceID
		}
	}
	if fin.cacheState != "" {
		s.reqHist[fin.cacheState].ObserveExemplar(dur.Seconds(), exemplar)
	}
}

func (s *Server) deadline(w http.ResponseWriter, err error) {
	s.timeouts.Inc()
	s.fail(w, http.StatusGatewayTimeout, "analysis aborted: %v", err)
}

func (s *Server) writeReport(w http.ResponseWriter, report []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	// report may be the result cache's shared bytes: appending the
	// newline could write into their spare capacity while another
	// request reads them.
	w.Write(report)
	w.Write([]byte{'\n'})
}

func (s *Server) recordTimings(t *driver.Timings, st constraint.SolveStats) {
	for name, d := range t.ProgramStages {
		s.stageHist[name].Observe(d.Seconds())
	}
	s.stageRuns.Add(1)
	s.solverVars.Add(uint64(st.Vars))
	s.solverConstraints.Add(uint64(st.Constraints))
}

// countRequests credits one analyze request to each selected analysis.
// The counter map is immutable after New, so no lock is needed.
func (s *Server) countRequests(names []string) {
	for _, name := range names {
		if c := s.perAnalysis[name]; c != nil {
			c.requests.Inc()
		}
	}
}

// countDiagnostics credits each analysis-owned diagnostic of a finished
// run. Cache hits re-serve stored bytes without re-counting: the
// counters measure analysis work, not traffic.
func (s *Server) countDiagnostics(diags []driver.Diagnostic) {
	for _, d := range diags {
		if c := s.perAnalysis[d.Analysis]; c != nil {
			c.diagnostics.Inc()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleTrace serves a tail-retained (or ?trace=1-forced) trace by id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	data, ok := s.recorder.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no retained trace %q (the flight recorder retains slow, failed, shed, sampled, and ?trace=1 requests, bounded to the most recent %d)", id, obs.RetainedTraces)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// EventsResponse is the GET /v1/events response shape.
type EventsResponse struct {
	// Events are the journal entries newer than ?since, oldest first.
	Events []obs.Event `json:"events"`
	// Next is the sequence number to pass as the next ?since.
	Next uint64 `json:"next"`
	// Dropped counts events that have fallen off the journal ring; a
	// client whose since is older than the ring sees a gap.
	Dropped uint64 `json:"dropped"`
}

// maxEventWait bounds a ?wait=1 long poll so intermediaries never see
// an unbounded request.
const maxEventWait = 25 * time.Second

// handleEvents serves the structured event journal. ?since=<seq>
// resumes after a known event; ?max=<n> bounds the batch; ?wait=1
// long-polls until an event newer than since exists (bounded by
// maxEventWait — an empty batch on timeout is the keep-alive).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := parseUint(q.Get("since"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "invalid since: %v", err)
		return
	}
	max := 0
	if v := q.Get("max"); v != "" {
		m, err := parseUint(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "invalid max: %v", err)
			return
		}
		max = int(m)
	}
	if q.Get("wait") == "1" {
		ctx, cancel := context.WithTimeout(r.Context(), maxEventWait)
		defer cancel()
		s.journal.Wait(ctx, since)
	}
	events, next := s.journal.Since(since, max)
	if events == nil {
		events = []obs.Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(EventsResponse{Events: events, Next: next, Dropped: s.journal.Stats().Dropped})
}

func parseUint(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

// Introspection is the GET /v1/introspect response shape: the live
// server state an operator (or cqualtop) reads at a glance.
type Introspection struct {
	UptimeMS  float64             `json:"uptime_ms"`
	Workers   WorkerIntrospect    `json:"workers"`
	Caches    CacheIntrospect     `json:"caches"`
	Retention RetentionIntrospect `json:"retention"`
	Journal   obs.JournalStats    `json:"journal"`
	SLOs      []SLOIntrospect     `json:"slos"`
}

// WorkerIntrospect reports concurrency-limiter state.
type WorkerIntrospect struct {
	// InFlight is the number of analyze requests currently being served
	// (including those queued on the limiter).
	InFlight int64 `json:"in_flight"`
	// Running is the number of limiter slots currently held.
	Running int `json:"running"`
	// MaxConcurrent is the limiter capacity.
	MaxConcurrent int `json:"max_concurrent"`
}

// CacheIntrospect holds the result cache's stat block.
type CacheIntrospect struct {
	Result cache.Stats `json:"result"`
}

// RetentionIntrospect is the flight recorder's ring state.
type RetentionIntrospect struct {
	obs.RecorderStats
	// Traces lists the resident ring entries, newest first.
	Traces []obs.RetainedInfo `json:"traces"`
}

// SLOIntrospect is one declared SLO with its current burn rates.
type SLOIntrospect struct {
	Endpoint    string  `json:"endpoint"`
	ObjectiveMS float64 `json:"objective_ms"`
	Target      float64 `json:"target"`
	// Burn maps window label ("5m") to the current burn rate.
	Burn map[string]float64 `json:"burn"`
}

// handleIntrospect dumps live server state as JSON. Every read is an
// atomic load or a short-lived copy under a lock; an in-flight analysis
// is never blocked by an introspection poll.
func (s *Server) handleIntrospect(w http.ResponseWriter, r *http.Request) {
	slo := s.endpoints["analyze"].slo
	burn := make(map[string]float64, len(obs.BurnWindows))
	for _, win := range obs.BurnWindows {
		burn[obs.WindowLabel(win)] = slo.BurnRate(win)
	}
	out := Introspection{
		UptimeMS: time.Since(s.start).Seconds() * 1000,
		Workers: WorkerIntrospect{
			InFlight:      s.inFlight.Load(),
			Running:       len(s.sem),
			MaxConcurrent: s.cfg.MaxConcurrent,
		},
		Caches:    CacheIntrospect{Result: s.results.Stats()},
		Retention: RetentionIntrospect{RecorderStats: s.recorder.Stats(), Traces: s.recorder.Retained()},
		Journal:   s.journal.Stats(),
		SLOs: []SLOIntrospect{{
			Endpoint:    "analyze",
			ObjectiveMS: slo.Objective() * 1000,
			Target:      obs.SLOTarget,
			Burn:        burn,
		}},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// Metrics is the GET /metrics response shape.
type Metrics struct {
	UptimeMS    float64     `json:"uptime_ms"`
	Requests    uint64      `json:"requests"`
	Analyses    uint64      `json:"analyses"`
	Failures    uint64      `json:"failures"`
	Timeouts    uint64      `json:"timeouts"`
	InFlight    int64       `json:"in_flight"`
	ResultCache cache.Stats `json:"result_cache"`
	// SummaryCache is always zero: there is no summary cache. Kept for
	// bench/daemon.go, removed with the next benchmark change.
	SummaryCache cache.Stats `json:"summary_cache"`
	// Sessions is always zero: the server keeps no sessions. Kept for
	// bench/daemon.go, removed with the next benchmark change.
	Sessions cache.Stats  `json:"sessions"`
	Stages   StageTotals  `json:"stages"`
	Solver   SolverTotals `json:"solver"`
	// PerAnalysis breaks request and diagnostic counts down by qualifier
	// analysis ("const", "taint", ...).
	PerAnalysis map[string]AnalysisMetrics `json:"per_analysis"`
}

// AnalysisMetrics is the per-analysis slice of the metrics.
type AnalysisMetrics struct {
	// Requests counts analyze requests that selected the analysis,
	// including cache hits and failed runs.
	Requests uint64 `json:"requests"`
	// Diagnostics counts diagnostics the analysis produced across
	// completed runs (cache misses only).
	Diagnostics uint64 `json:"diagnostics"`
}

// StageTotals sums per-stage wall-clock time over every analysis run
// (result-cache hits spend time in no stage and are excluded).
type StageTotals struct {
	Runs        uint64  `json:"runs"`
	LoadMS      float64 `json:"load_ms"`
	ParseMS     float64 `json:"parse_ms"`
	BuildMS     float64 `json:"build_ms"`
	ConstrainMS float64 `json:"constrain_ms"`
	SolveMS     float64 `json:"solve_ms"`
	ClassifyMS  float64 `json:"classify_ms"`
	ReportMS    float64 `json:"report_ms"`
	AnalysisMS  float64 `json:"analysis_ms"`
}

// SolverTotals sums the solver's size counters (see
// constraint.SolveStats) over every analysis run; like Stages, cache
// hits run no solve and are excluded.
type SolverTotals struct {
	Vars        uint64 `json:"vars"`
	Constraints uint64 `json:"constraints"`
}

// Snapshot returns the current metrics. Every read is an atomic load;
// a snapshot taken during a storm of analyses costs the analyses
// nothing.
func (s *Server) Snapshot() Metrics {
	per := make(map[string]AnalysisMetrics, len(s.perAnalysis))
	for name, c := range s.perAnalysis {
		req, diag := c.requests.Value(), c.diagnostics.Value()
		if req == 0 && diag == 0 {
			// The JSON shape predates series pre-registration: analyses
			// never requested stay absent, as they always have.
			continue
		}
		per[name] = AnalysisMetrics{Requests: req, Diagnostics: diag}
	}
	// The sums go back into a Timings, so analysis_ms is
	// Timings.Analysis over them.
	var sum driver.Timings
	for name, d := range sum.ProgramStages {
		*d = time.Duration(math.Round(s.stageHist[name].Sum() * float64(time.Second)))
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	return Metrics{
		UptimeMS:    time.Since(s.start).Seconds() * 1000,
		Requests:    s.requests.Value(),
		Analyses:    s.analyses.Value(),
		Failures:    s.failures.Value(),
		Timeouts:    s.timeouts.Value(),
		InFlight:    s.inFlight.Load(),
		ResultCache: s.results.Stats(),
		PerAnalysis: per,
		Solver:      SolverTotals{Vars: s.solverVars.Value(), Constraints: s.solverConstraints.Value()},
		Stages: StageTotals{
			Runs:        s.stageRuns.Load(),
			LoadMS:      ms(sum.Load),
			ParseMS:     ms(sum.Parse),
			BuildMS:     ms(sum.Build),
			ConstrainMS: ms(sum.Constrain),
			SolveMS:     ms(sum.Solve),
			ClassifyMS:  ms(sum.Classify),
			ReportMS:    ms(sum.Report),
			AnalysisMS:  ms(sum.Analysis()),
		},
	}
}

// handleMetrics renders the counters. The default JSON shape is the
// service's original contract and is unchanged; the two text
// expositions (with the latency histograms, which JSON does not carry)
// are selected by content negotiation — Accept: text/plain for
// Prometheus 0.0.4, Accept: application/openmetrics-text for
// OpenMetrics 1.0 with trace-id exemplars — or explicitly with
// ?format=prometheus / ?format=openmetrics / ?format=json, which wins
// over the header. Wildcard, absent, and everything-excluded Accept
// headers deterministically select JSON (see obs.NegotiateMetricsFormat).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = obs.NegotiateMetricsFormat(r.Header.Get("Accept"))
	}
	switch format {
	case obs.FormatPrometheus:
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		s.reg.WritePrometheus(w)
	case obs.FormatOpenMetrics:
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		s.reg.WriteOpenMetrics(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	}
}
