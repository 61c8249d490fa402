package obs

// Typed metrics with Prometheus and OpenMetrics text-format renderers.
//
// The registry is designed for lock-free scrapes: counters are
// sync/atomic cells, histograms are arrays of atomic bucket
// counters with an atomically-accumulated float sum, and GaugeFunc
// reads a callback at render time for values that already live
// elsewhere (cache occupancy, uptime). Registration takes a lock once,
// at startup; observation and rendering never do.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric label.
type Label struct {
	Key, Value string
}

// L builds a label.
func L(key, value string) Label { return Label{key, value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefLatencyBuckets is the default histogram bucketing for request and
// stage latencies, in seconds: half-microsecond analyses through
// ten-second batch runs.
var DefLatencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Exemplar links a histogram bucket to a retained trace: the last
// observation that landed in the bucket with a trace id attached. The
// OpenMetrics renderer attaches it to the bucket line so a dashboard
// can jump from a latency bucket straight to /v1/traces/<id>.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram is a fixed-bucket latency histogram with cumulative
// Prometheus semantics. Observations and reads are lock-free.
type Histogram struct {
	bounds    []float64 // upper bounds; the +Inf bucket is implicit
	buckets   []atomic.Uint64
	count     atomic.Uint64
	sumBits   atomic.Uint64 // float64 bits, CAS-accumulated
	exemplars []atomic.Pointer[Exemplar]
}

// Observe records one value (typically seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// attaches it as the bucket's exemplar (last writer wins).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind discriminates renderers.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

// series is one registered time series: a family name, a rendered label
// set, and the typed cell.
type series struct {
	name   string
	labels string // rendered `{k="v",...}` or ""
	kind   metricKind
	ctr    *Counter
	fn     func() float64
	hist   *Histogram
}

// family groups the series of one metric name, carrying HELP/TYPE.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry holds registered metrics and renders them. Register at
// startup; observe and render freely afterwards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	s := &series{name: name, labels: renderLabels(labels), kind: kind}
	for _, old := range f.series {
		if old.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
	return s
}

// NewCounter registers a counter series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	s.ctr = &Counter{}
	return s.ctr
}

// NewGaugeFunc registers a gauge whose value is read from fn at render
// time — for values maintained elsewhere (cache occupancy, uptime).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGaugeFunc, labels)
	s.fn = fn
}

// NewHistogram registers a histogram series with the given upper bounds
// (nil selects DefLatencyBuckets). Bounds must be sorted ascending.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	s := r.register(name, help, kindHistogram, labels)
	s.hist = &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	return s.hist
}

// renderLabels renders a label set in sorted-key order, Prometheus
// style, with label values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// mergeLabels splices an extra label into an already-rendered label set
// — used for the `le` label of histogram buckets.
func mergeLabels(rendered, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshot copies the family list under the registration lock so a
// render never races a (startup-time) registration.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, len(r.names))
	for i, n := range r.names {
		f := r.families[n]
		ser := append([]*series(nil), f.series...)
		fams[i] = &family{name: f.name, help: f.help, kind: f.kind, series: ser}
	}
	return fams
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders every registered metric in OpenMetrics 1.0
// text format, with exemplars on histogram buckets.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// write renders the registry in either exposition. Families appear in
// registration order; series within a family are sorted by label set,
// so the output is deterministic. The render itself takes no metric
// locks. The OpenMetrics 1.0 render differs from the Prometheus 0.0.4
// one only where the specs differ:
//
//   - counter family names drop the `_total` suffix in HELP/TYPE lines
//     (the sample line keeps it — OpenMetrics treats `_total` as the
//     counter's value suffix, not part of the family name)
//   - histogram bucket lines carry exemplars: ` # {trace_id="..."} v`,
//     linking the bucket to a retained flight-recorder trace; exemplar
//     timestamps are deliberately omitted so renders stay deterministic
//     for a fixed metric state
//   - the exposition ends with `# EOF`
func (r *Registry) write(w io.Writer, openMetrics bool) error {
	fams := r.snapshot()

	var b strings.Builder
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		famName := f.name
		if openMetrics && f.kind == kindCounter {
			famName = strings.TrimSuffix(famName, "_total")
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", famName, f.help, famName, typ)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.ctr.Value())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
			case kindHistogram:
				h := s.hist
				var cum uint64
				for i := range h.buckets {
					cum += h.buckets[i].Load()
					le := "+Inf"
					if i < len(h.bounds) {
						le = formatFloat(h.bounds[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %d", s.name, mergeLabels(s.labels, "le", le), cum)
					if ex := h.exemplars[i].Load(); openMetrics && ex != nil {
						fmt.Fprintf(&b, ` # {trace_id="%s"} %s`, escapeLabel(ex.TraceID), formatFloat(ex.Value))
					}
					b.WriteByte('\n')
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, s.labels, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, h.Count())
			}
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
