package obs

// OpenMetrics 1.0 text exposition — the negotiated upgrade from the
// Prometheus 0.0.4 format that WritePrometheus emits. The two renderers
// walk the same registry snapshot and differ only where the specs
// differ:
//
//   - counter family names drop the `_total` suffix in HELP/TYPE lines
//     (the sample line keeps it — OpenMetrics treats `_total` as the
//     counter's value suffix, not part of the family name)
//   - histogram bucket lines carry exemplars: ` # {trace_id="..."} v`,
//     linking the bucket to a retained flight-recorder trace; exemplar
//     timestamps are deliberately omitted so renders stay deterministic
//     for a fixed metric state
//   - the exposition ends with `# EOF`
//
// ContentTypeOpenMetrics is what a scraper that sent
// `Accept: application/openmetrics-text` gets back.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Content types for the two expositions /metrics can negotiate.
const (
	ContentTypePrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// WriteOpenMetrics renders every registered metric in OpenMetrics 1.0
// text format, with exemplars on histogram buckets. Family and series
// order match WritePrometheus, so the two expositions are line-for-line
// comparable.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	fams := r.snapshot()

	var b strings.Builder
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		famName := f.name
		if f.kind == kindCounter {
			famName = strings.TrimSuffix(famName, "_total")
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", famName, f.help, famName, typ)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.gauge.Value())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
			case kindHistogram:
				h := s.hist
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					writeOMBucket(&b, s.name, mergeLabels(s.labels, "le", formatFloat(bound)), cum, h.exemplars[i].Load())
				}
				cum += h.buckets[len(h.bounds)].Load()
				writeOMBucket(&b, s.name, mergeLabels(s.labels, "le", "+Inf"), cum, h.exemplars[len(h.bounds)].Load())
				fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, s.labels, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, h.Count())
			}
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeOMBucket(b *strings.Builder, name, labels string, cum uint64, ex *Exemplar) {
	fmt.Fprintf(b, "%s_bucket%s %d", name, labels, cum)
	if ex != nil {
		fmt.Fprintf(b, ` # {trace_id="%s"} %s`, escapeLabel(ex.TraceID), formatFloat(ex.Value))
	}
	b.WriteByte('\n')
}
