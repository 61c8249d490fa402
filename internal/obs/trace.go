// Package obs is the observability layer of the analysis pipeline: a
// stdlib-only hierarchical span tracer exporting deterministic Chrome
// trace-event JSON, and a typed metrics registry rendering Prometheus
// text format. Both are threaded through the pipeline via
// context.Context, cost nothing when disabled (a nil Tracer no-ops on
// every method), and depend on nothing outside the standard library, so
// every layer — driver, constinfer, constraint, cache, server — can
// import them without cycles.
//
// Determinism. Spans are only ever started and ended on the caller's
// goroutine, along the deterministic sequential spine of the pipeline
// (stage boundaries, the SCC-ordered body walk, the mask-class loop of
// the solver) — never from the concurrent parse fan-out, whose
// scheduling is not deterministic. With an injected fake clock the
// entire clock-call sequence is therefore identical from run to run, and
// the exported trace is byte-identical too (see the driver's golden
// test).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock supplies timestamps to a Tracer. The zero tracer uses the wall
// clock; tests inject a fake monotonic clock to make traces
// reproducible.
type Clock interface {
	Now() time.Time
}

// WallClock is the real time.Now clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// FakeClock is a deterministic monotonic clock: every Now call advances
// it by a fixed step. Safe for concurrent use (though deterministic
// traces additionally require a deterministic call sequence; see the
// package comment).
type FakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewFakeClock starts a fake clock at start, advancing by step per Now
// call.
func NewFakeClock(start time.Time, step time.Duration) *FakeClock {
	return &FakeClock{t: start, step: step}
}

// Now returns the current fake time and advances the clock by one step.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

// Attr is one span attribute, rendered into the Chrome trace event's
// "args" object. Attributes keep their insertion order on export, so a
// deterministic call sequence yields deterministic bytes.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{key, value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{key, value} }

// span is one finished (or still-open) trace span.
type span struct {
	name  string
	cat   string
	start time.Time
	end   time.Time
	seq   int // start order, for stable export sorting
	open  bool
	attrs []Attr
}

// Tracer collects hierarchical spans and exports them as Chrome
// trace-event JSON (the chrome://tracing / Perfetto "trace event"
// format, complete events). Create with NewTracer; a nil *Tracer is a
// valid no-op tracer, which is how tracing stays free when disabled.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	epoch time.Time
	spans []*span
	seq   int
}

// NewTracer builds a tracer reading timestamps from clock (nil selects
// the wall clock). The first timestamp read becomes the trace epoch:
// exported timestamps are offsets from it.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = WallClock{}
	}
	t := &Tracer{clock: clock}
	t.epoch = clock.Now()
	return t
}

// Span is a handle to an in-flight span. All methods are nil-safe: a
// nil Span (from a nil Tracer) no-ops.
type Span struct {
	t *Tracer
	s *span
}

// Start opens a span. The category groups spans in trace viewers
// ("driver", "constinfer", "solver", "server"). Nil-safe.
func (t *Tracer) Start(cat, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	now := t.clock.Now()
	t.mu.Lock()
	s := &span{name: name, cat: cat, start: now, seq: t.seq, open: true, attrs: attrs}
	t.seq++
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return &Span{t: t, s: s}
}

// End closes the span. Ending a nil or already-ended span is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	now := sp.t.clock.Now()
	sp.t.mu.Lock()
	if sp.s.open {
		sp.s.open = false
		sp.s.end = now
	}
	sp.t.mu.Unlock()
}

// SetAttr appends an attribute to the span. Nil-safe.
func (sp *Span) SetAttr(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	sp.s.attrs = append(sp.s.attrs, attrs...)
	sp.t.mu.Unlock()
}

// WriteJSON exports the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
// Spans still open at export time are flushed with the current clock
// reading as their end. Events are sorted by start time (ties broken by
// start order), timestamps are microseconds from the trace epoch with
// nanosecond precision, and attribute order is insertion order — the
// export is a pure function of the clock-call and span-call sequence.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	now := t.clock.Now()
	t.mu.Lock()
	spans := make([]*span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].seq < spans[j].seq
	})

	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(',')
		}
		end := s.end
		if s.open {
			end = now
		}
		ts := float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3
		dur := float64(end.Sub(s.start).Nanoseconds()) / 1e3
		if dur < 0 {
			dur = 0
		}
		b.WriteString(`{"name":`)
		b.WriteString(quoteJSON(s.name))
		b.WriteString(`,"cat":`)
		b.WriteString(quoteJSON(s.cat))
		b.WriteString(`,"ph":"X","ts":`)
		b.WriteString(formatMicros(ts))
		b.WriteString(`,"dur":`)
		b.WriteString(formatMicros(dur))
		b.WriteString(`,"pid":1,"tid":1`)
		if len(s.attrs) > 0 {
			b.WriteString(`,"args":{`)
			for j, a := range s.attrs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(quoteJSON(a.Key))
				b.WriteByte(':')
				b.WriteString(encodeValue(a.Value))
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteString(`],"displayTimeUnit":"ms"}`)
	_, err := io.WriteString(w, b.String())
	return err
}

// formatMicros renders a microsecond quantity with up to nanosecond
// precision and no scientific notation, dropping a trailing ".000".
func formatMicros(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	return strings.TrimSuffix(s, ".000")
}

// encodeValue renders an attribute value as JSON. Only the types the
// Attr constructors produce (string, int, bool) plus a few numeric
// conveniences are supported; anything else is rendered via %v as a
// string, keeping export total.
func encodeValue(v any) string {
	switch v := v.(type) {
	case string:
		return quoteJSON(v)
	case int:
		return strconv.Itoa(v)
	case int32:
		return strconv.FormatInt(int64(v), 10)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case bool:
		return strconv.FormatBool(v)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	default:
		return quoteJSON(fmt.Sprintf("%v", v))
	}
}

// quoteJSON escapes a string as a JSON string literal. Only the escapes
// JSON requires are applied; all output is ASCII-safe for the control
// range and passes non-ASCII through verbatim (valid UTF-8 in, valid
// JSON out).
func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
