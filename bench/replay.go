package main

// The traced run. It replays a workload's requests in this process the way
// the daemon's analyze handler answers them — decode, cache key, cache
// lookup, the pipeline through driver.RunContext (or a retained
// driver.Session), encode, cache store — and times each call from here.
// The pipeline's stage split, load to report, is the driver's own
// Result.Timings of that call, so the layers describe the op the daemon
// runs, flow-traced conflict reports included. The program runs untouched:
// its context carries no tracer of ours; the spans go to a bench-owned
// obs.Tracer that is written out as a Chrome trace when the run ends.
//
// Every request is answered twice, by two replicas that hold the same
// caches and sessions: once traced and once untraced, in alternating
// order, each after a full collection. trace.overhead is the median over
// these pairs of traced ÷ untraced − 1, so the two arms compare the same
// work from the same heap state.
//
// Batch workloads replay their op in request form with fresh caches per op
// and no summary store, as a fresh cqual process has none; there the
// request layers measure what the daemon would add for the same input.
// The replicas' caches are unbounded; the untraced run checks that the
// daemon at its default bounds evicts nothing either. Requests from the
// two daemon clients interleave on one goroutine, so every layer time is
// uncontended.
//
// After the window a third replica answers the same requests again, stage
// by stage through the public calls the driver makes, to measure each
// stage's allocation, and times the lexer and a syntax-only parse over the
// same files. These split the op; they are not part of it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/server"
)

// opLayers are the layers an op's wall is split into, in pipeline order;
// trace.coverage is their sum over the op wall.
var opLayers = []string{"request.decode", "cache.key", "cache.lookup", "load", "parse", "build", "constrain", "solve", "classify", "report", "encode", "cache.store"}

// layerLog accumulates the traced ops' layer times and counts. A nil
// *layerLog runs an op untraced.
type layerLog struct {
	tracer *obs.Tracer
	clock  *spanClock
	ms     map[string]float64 // summed wall per layer
	counts map[string]float64 // summed work counts
}

func newLayerLog() *layerLog {
	c := &spanClock{}
	return &layerLog{tracer: obs.NewTracer(c), clock: c, ms: map[string]float64{}, counts: map[string]float64{}}
}

// spanClock is the wall clock, except while stages reports lays the
// driver's stage timings out as spans.
type spanClock struct{ at time.Time }

func (c *spanClock) Now() time.Time {
	if c.at.IsZero() {
		return time.Now()
	}
	return c.at
}

// time runs fn as one call into layer name.
func (l *layerLog) time(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	sp := l.tracer.Start("layer", name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	l.ms[name] += d.Seconds() * 1000
}

// stages records the stage timings of one pipeline call that began at
// start, as consecutive spans from start.
func (l *layerLog) stages(start time.Time, t driver.Timings) {
	if l == nil {
		return
	}
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"load", t.Load}, {"parse", t.Parse}, {"build", t.Build}, {"constrain", t.Constrain},
		{"solve", t.Solve}, {"classify", t.Classify}, {"report", t.Report},
	} {
		l.clock.at = start
		sp := l.tracer.Start("layer", s.name)
		start = start.Add(s.d)
		l.clock.at = start
		sp.End()
		l.ms[s.name] += s.d.Seconds() * 1000
	}
	l.clock.at = time.Time{}
}

// replica holds the caches and sessions the daemon would hold.
type replica struct {
	batch     bool
	results   *cache.ResultCache
	summaries *cache.SummaryStore
	sessions  *cache.SessionStore
}

func newReplica(batch bool) *replica {
	r := &replica{batch: batch}
	r.reset()
	if !batch {
		r.summaries = cache.NewSummaryStore(0, 0)
	}
	return r
}

func (r *replica) reset() {
	r.results = cache.NewResultCache(0, 0)
	r.sessions = cache.NewSessionStore(0)
}

// do answers one request body the way the daemon's analyze handler does,
// returning the report, the X-Cache value the daemon would send, and the
// pipeline's result (nil for a hit).
func (r *replica) do(body []byte, l *layerLog) ([]byte, string, *driver.Result, error) {
	var req server.AnalyzeRequest
	var err error
	l.time("request.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, "", nil, err
	}
	cfg, sources := requestConfig(req)
	if r.summaries != nil {
		cfg.Summaries = r.summaries
	}
	var key cache.Key
	l.time("cache.key", func() { key = cache.RequestKey(cfg, sources) })

	var sess *driver.Session
	if req.Session != "" {
		l.time("cache.lookup", func() {
			sess, _ = r.sessions.GetOrCreate(cache.SessionKey(cfg, req.Session),
				func() *driver.Session { return driver.NewSession(cfg) })
		})
	} else {
		var hit []byte
		var ok bool
		l.time("cache.lookup", func() { hit, ok = r.results.Get(key) })
		if ok {
			return hit, "hit", nil, nil
		}
	}

	start := time.Now()
	var res *driver.Result
	if sess != nil {
		res, err = sess.RunDelta(context.Background(), sources)
	} else {
		res, err = driver.RunContext(context.Background(), cfg, sources)
	}
	if err != nil {
		return nil, "", nil, err
	}
	l.stages(start, res.Timings)
	var out []byte
	l.time("encode", func() { out, err = res.JSON() })
	if err != nil {
		return nil, "", nil, err
	}
	if sess != nil {
		return out, "session", res, nil
	}
	l.time("cache.store", func() { r.results.Put(key, out) })
	return out, "miss", res, nil
}

// requestConfig maps a request onto the pipeline config the way the
// daemon does, with its default worker settings.
func requestConfig(req server.AnalyzeRequest) (driver.Config, []driver.Source) {
	cfg := driver.Config{
		Lang: req.Lang,
		Options: constinfer.Options{
			Poly:     req.Poly || req.PolyRec,
			PolyRec:  req.PolyRec,
			Simplify: req.Simplify,
		},
		Uninit:   req.Uninit,
		Analyses: req.Analyses,
	}
	for _, p := range req.Preludes {
		cfg.Preludes = append(cfg.Preludes, driver.PreludeFile{Path: p.Path, Text: p.Text})
	}
	sources := make([]driver.Source, len(req.Sources))
	for i, s := range req.Sources {
		sources[i] = driver.Source{Path: s.Path, Text: s.Text}
	}
	return cfg, sources
}

// traceRun replays the workload's requests for the window and returns the
// per-layer metrics.
func traceRun(w workload, in *inputs, window time.Duration, traceFile string) (*measured, error) {
	arms := [2]*replica{newReplica(w.batch), newReplica(w.batch)} // untraced, traced
	var warm [2][][]byte
	for _, q := range in.warm {
		for a, r := range arms {
			out, _, _, err := r.do(q.body, nil)
			if err != nil {
				return nil, fmt.Errorf("warm request: %v", err)
			}
			warm[a] = append(warm[a], out)
		}
	}
	summary0 := cache.Stats{}
	if arms[1].summaries != nil {
		summary0 = arms[1].summaries.Stats()
	}

	l := newLayerLog()
	m := &measured{}
	var ratios []float64 // traced ÷ untraced wall, per request
	var tracedWall float64
	var replayed []request // every request, for the stage pass
	var hits, sessionSolves, deltaApplied, dirtyVars int
	checked := [2]map[int]error{{}, {}}
	start := time.Now()
	for j := 0; j < len(in.clients[0]); j++ {
		if j >= minOps && j%in.block == 0 && time.Since(start) >= window {
			break
		}
		for c, reqs := range in.clients {
			q := reqs[j]
			replayed = append(replayed, q)
			var wall [2]float64
			for k := range 2 {
				a := (j + c + k) % 2
				r := arms[a]
				if r.batch {
					r.reset()
				}
				var ll *layerLog
				var sp *obs.Span
				if a == 1 {
					ll = l
				}
				runtime.GC()
				if ll != nil {
					sp = ll.tracer.Start("op", q.kind)
				}
				t := time.Now()
				out, xcache, res, err := r.do(q.body, ll)
				wall[a] = time.Since(t).Seconds() * 1000
				sp.End()
				m.attempted++
				if err == nil {
					err = verify(answer{q: q, status: 200, xcache: xcache, resp: out}, warm[a], checked[a])
				}
				if err != nil {
					m.fail(fmt.Errorf("%s: %v", q.kind, err))
				}
				if ll == nil {
					continue
				}
				if xcache == "hit" {
					hits++
				}
				if res != nil && res.Report != nil {
					l.counts["files"] += float64(len(res.Program.FileNames()))
					l.counts["lines"] += float64(sourceLines(q.body))
					l.counts["functions"] += float64(res.Report.Functions)
					l.counts["constraints"] += float64(res.Solver.Constraints)
					l.counts["vars"] += float64(res.Solver.Vars)
					if res.Delta != nil {
						sessionSolves++
						if res.Delta.Applied {
							deltaApplied++
							dirtyVars += res.Delta.DirtyVars
						}
					}
				}
			}
			tracedWall += wall[1]
			ratios = append(ratios, wall[1]/wall[0])
		}
	}

	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := l.tracer.WriteJSON(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	ops := float64(len(ratios))
	m.metrics = map[string]float64{}
	covered := 0.0
	for _, name := range opLayers {
		covered += l.ms[name]
		m.metrics[name+".ms"] = l.ms[name] / ops
	}
	m.metrics["parse.files"] = l.counts["files"] / ops
	m.metrics["parse.klines_per_s"] = l.counts["lines"] / l.ms["parse"]
	m.metrics["functions"] = l.counts["functions"] / ops
	m.metrics["constraints"] = l.counts["constraints"] / ops
	m.metrics["vars"] = l.counts["vars"] / ops
	m.metrics["trace.coverage"] = covered / tracedWall
	m.metrics["trace.overhead"] = median(ratios) - 1
	m.metrics["cache.result.hit_ratio"] = float64(hits) / ops
	if r := arms[1]; r.summaries != nil {
		s := r.summaries.Stats()
		if n := s.Hits + s.Misses - summary0.Hits - summary0.Misses; n > 0 {
			m.metrics["cache.summary.hit_ratio"] = float64(s.Hits-summary0.Hits) / float64(n)
		}
	}
	if sessionSolves > 0 {
		m.metrics["delta.applied_ratio"] = float64(deltaApplied) / float64(sessionSolves)
	}
	if deltaApplied > 0 {
		m.metrics["delta.dirty_vars"] = float64(dirtyVars) / float64(deltaApplied)
	}

	split, err := stagePass(w.batch, in.warm, replayed)
	if err != nil {
		return nil, err
	}
	for name, v := range split {
		m.metrics[name] = v / ops
	}
	return m, nil
}

// sourceLines is the number of source lines a request body carries.
func sourceLines(body []byte) int {
	var req server.AnalyzeRequest
	json.Unmarshal(body, &req) // the request decoded once already
	n := 0
	for _, s := range req.Sources {
		n += strings.Count(s.Text, "\n")
	}
	return n
}

// stagePass answers the warm requests and then the replayed ones again,
// on a fresh replica, stage by stage as driver.RunContext and
// Session.RunDelta do: FrontEnd.Load, FrontEnd.Parse, the suite and
// Engine.Prepare, Engine.ConstrainContext, then Engine.SolveSystemContext
// or Engine.SolveSession on the request's retained constraint.Session. It
// returns, summed over the replayed requests, each stage's allocation and
// the lexer and syntax-only parse over the loaded files. Result-cache hits
// run no stage; a batch request starts from nothing, as its op does.
func stagePass(batch bool, warm, replayed []request) (map[string]float64, error) {
	sum := map[string]float64{}
	var summaries *cache.SummaryStore
	sessions := map[string]*constraint.Session{}
	if !batch {
		summaries = cache.NewSummaryStore(0, 0)
	}
	for i, q := range append(append([]request(nil), warm...), replayed...) {
		measure := i >= len(warm)
		if q.kind == "hit" {
			continue
		}
		var req server.AnalyzeRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			return nil, err
		}
		cfg, sources := requestConfig(req)
		if summaries != nil {
			cfg.Summaries = summaries
		}
		fe, ok := driver.LookupFrontEnd(cfg.Lang)
		if !ok {
			return nil, fmt.Errorf("unknown language %q", cfg.Lang)
		}
		files, loadErrs := fe.Load(sources)
		var prog driver.Program
		var parseErrs []error
		alloc(sum, "parse", measure, func() { prog, parseErrs = fe.Parse(context.Background(), files, loadErrs) })
		for k := range files {
			if loadErrs[k] != nil || parseErrs[k] != nil {
				return nil, fmt.Errorf("%s: %v%v", files[k].Path, loadErrs[k], parseErrs[k])
			}
		}
		suite, err := buildSuite(cfg)
		if err != nil {
			return nil, err
		}
		eng := prog.NewEngine(cfg, suite)
		if sj, ok := eng.(interface{ SetSolveJobs(int) }); ok {
			sj.SetSolveJobs(cfg.SolveJobs)
		}
		eng.Prepare()
		alloc(sum, "constrain", measure, func() { eng.ConstrainContext(context.Background(), cfg.Jobs) })
		alloc(sum, "solve", measure, func() {
			if req.Session == "" {
				eng.SolveSystemContext(context.Background())
				return
			}
			ss := sessions[req.Session]
			if ss == nil {
				ss = constraint.NewSession(eng.Set())
				sessions[req.Session] = ss
			}
			ss.SetSolveJobs(cfg.SolveJobs)
			eng.SolveSession(context.Background(), ss)
		})
		if measure {
			runtime.GC()
			frontEndSplit(sum, cfg.Lang, files)
		}
	}
	return sum, nil
}

// alloc runs fn and, when measure is set, adds the bytes it allocated to
// sum[stage.alloc_mb].
func alloc(sum map[string]float64, stage string, measure bool, fn func()) {
	a0 := allocatedBytes()
	fn()
	if measure {
		sum[stage+".alloc_mb"] += float64(allocatedBytes()-a0) / 1e6
	}
}

// allocatedBytes is the process's cumulative heap allocation, read
// without stopping the world.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// buildSuite resolves the config's analyses and preludes, as the driver's
// Build stage does.
func buildSuite(cfg driver.Config) (*analysis.Suite, error) {
	var preludes []*analysis.Prelude
	for _, p := range cfg.Preludes {
		pr, err := analysis.ParsePrelude(p.Path, p.Text)
		if err != nil {
			return nil, err
		}
		preludes = append(preludes, pr)
	}
	return analysis.NewSuite(cfg.AnalysisNames(), preludes)
}

// frontEndSplit times the front end's lexer and its syntax-only parse
// over the files into sum. For Go, parse − parse.syntax is the type-check
// and import share of parse; for C the two run the same parser, parse
// with the front end's per-file fan-out.
func frontEndSplit(sum map[string]float64, lang string, files []driver.Source) {
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		sum[name+".ms"] += time.Since(start).Seconds() * 1000
	}
	var tokens int
	if lang == "go" {
		fset := token.NewFileSet()
		timed("lex", func() {
			for _, f := range files {
				var s scanner.Scanner
				s.Init(fset.AddFile(f.Path, -1, len(f.Text)), []byte(f.Text), nil, 0)
				for _, tok, _ := s.Scan(); tok != token.EOF; _, tok, _ = s.Scan() {
					tokens++
				}
			}
		})
		fset = token.NewFileSet()
		timed("parse.syntax", func() {
			for _, f := range files {
				parser.ParseFile(fset, f.Path, f.Text, parser.SkipObjectResolution)
			}
		})
	} else {
		timed("lex", func() {
			for _, f := range files {
				toks, _ := cfront.Tokenize(f.Path, f.Text)
				tokens += len(toks)
			}
		})
		timed("parse.syntax", func() {
			for _, f := range files {
				cfront.Parse(f.Path, f.Text)
			}
		})
	}
	sum["lex.tokens"] += float64(tokens)
}
