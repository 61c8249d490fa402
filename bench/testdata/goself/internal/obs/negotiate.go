package obs

// Content negotiation for /metrics. The endpoint can answer in three
// shapes — JSON (the daemon's native snapshot), Prometheus 0.0.4 text,
// or OpenMetrics 1.0 — and the Accept header picks one deterministically:
//
//   - `application/openmetrics-text` selects OpenMetrics
//   - `text/plain` selects Prometheus text
//   - `application/json`, a wildcard (`*/*`), an absent header, or a
//     header that excludes everything (q=0) selects JSON
//
// Wildcards deliberately resolve to JSON rather than "the best" format:
// a browser sends `text/html,...,*/*;q=0.8` and should see the JSON
// snapshot, not a text exposition; scrapers that want text say
// `text/plain` (Prometheus) or `application/openmetrics-text`
// explicitly. Ties on equal q break toward the richer exposition:
// OpenMetrics over Prometheus over JSON.

import (
	"strconv"
	"strings"
)

// Metric format names returned by NegotiateMetricsFormat and accepted
// by the ?format= query parameter.
const (
	FormatJSON        = "json"
	FormatPrometheus  = "prometheus"
	FormatOpenMetrics = "openmetrics"
)

// NegotiateMetricsFormat picks the /metrics response shape for an
// Accept header value. The empty string (absent header) selects JSON.
func NegotiateMetricsFormat(accept string) string {
	if strings.TrimSpace(accept) == "" {
		return FormatJSON
	}
	var qOM, qProm, qJSON float64
	for _, part := range strings.Split(accept, ",") {
		mediaType, q := parseAcceptPart(part)
		switch mediaType {
		case "application/openmetrics-text":
			qOM = max(qOM, q)
		case "text/plain":
			qProm = max(qProm, q)
		case "application/json", "*/*":
			qJSON = max(qJSON, q)
		}
	}
	best := max(qOM, max(qProm, qJSON))
	switch {
	case best <= 0:
		return FormatJSON
	case qOM == best:
		return FormatOpenMetrics
	case qProm == best:
		return FormatPrometheus
	default:
		return FormatJSON
	}
}

// parseAcceptPart splits one Accept entry into its media type and
// quality value (default 1; malformed q parses as 0 — excluded).
func parseAcceptPart(part string) (string, float64) {
	fields := strings.Split(part, ";")
	mediaType := strings.ToLower(strings.TrimSpace(fields[0]))
	q := 1.0
	for _, p := range fields[1:] {
		p = strings.TrimSpace(p)
		if v, ok := strings.CutPrefix(p, "q="); ok {
			parsed, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil || parsed < 0 {
				parsed = 0
			}
			q = parsed
		}
	}
	return mediaType, q
}
