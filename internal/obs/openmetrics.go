package obs

// Content types for the two expositions /metrics can negotiate (see
// NegotiateMetricsFormat). ContentTypeOpenMetrics is what a scraper that
// sent `Accept: application/openmetrics-text` gets back.
const (
	ContentTypePrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)
