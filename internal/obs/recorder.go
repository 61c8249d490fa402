package obs

// The flight recorder: tail-based trace retention. Every request
// records spans into a Tracer; at request end — once the latency and
// outcome are known — Decide picks whether the exported trace is worth
// keeping, and Put stores it in a bounded ring retrievable by trace id.
// The point is inverted sampling: head-based tracing (?trace=1) only
// captures problems the client predicted; tail-based retention captures
// exactly the requests an operator asks about afterwards — the slow
// ones, the failed ones, and a deterministic background sample for
// baseline comparison.
//
// Retention policy, in evaluation order (a request may match several;
// every matched reason's counter is bumped, so the counters over-count
// relative to admissions by design — admissions reconcile as
// admitted == resident + evicted instead):
//
//   - forced:   the client passed ?trace=1 (always kept)
//   - error:    the request failed (non-200)
//   - shed:     the request was load-shed or timed out (429/504)
//   - slow:     per latency-histogram bucket, the first slowestPerBucket
//     requests landing in the bucket are kept, and afterwards only new
//     per-bucket maxima — so every populated latency bucket always has
//     recent representative traces, and the slowest tail is always
//     retained (this is also what the OpenMetrics exemplars link to)
//   - sample:   a deterministic 1-in-sampleEvery pick by request
//     ordinal (the first request is always sampled, so a fresh server
//     has a baseline trace immediately)
//
// Lock freedom. Decide and Put are the per-request record path and Get
// is the operator read path; all three touch only atomics — the ring is
// a fixed array of atomic.Pointer slots claimed by an atomic cursor, and
// the per-bucket slow state is a counter plus a CAS'd float-bits
// maximum — so recording never contends with scrapes and a /metrics or
// /v1/introspect poll never delays a request.

import (
	"math"
	"sort"
	"sync/atomic"
)

// The retention constants. RetainedTraces bounds the ring; the slow
// policy admits the first slowestPerBucket requests of each
// DefLatencyBuckets bucket (the buckets of the latency histograms the
// exemplars annotate); sampleEvery is the baseline sample's K.
const (
	RetainedTraces   = 32
	slowestPerBucket = 2
	sampleEvery      = 64
)

// Sample is one finished request presented to Decide.
type Sample struct {
	// Seconds is the end-to-end request latency.
	Seconds float64
	// Err marks a failed request (non-200).
	Err bool
	// Shed marks a load-shed or deadline-exceeded request.
	Shed bool
	// Forced marks an explicit ?trace=1 opt-in.
	Forced bool
}

// RetainReasons enumerates the policy counters in render order.
var RetainReasons = []string{"forced", "error", "shed", "slow", "sample"}

// RetainedTrace is one ring entry.
type RetainedTrace struct {
	ID      string
	Data    []byte
	Seconds float64
	Reasons []string
}

// RetainedInfo is the introspection view of one ring entry (no body).
type RetainedInfo struct {
	ID      string   `json:"id"`
	Bytes   int      `json:"bytes"`
	Seconds float64  `json:"seconds"`
	Reasons []string `json:"reasons"`
}

// RecorderStats snapshots the retention counters. Admitted always
// equals Resident + Evicted; Decisions - Admitted requests were
// discarded unretained.
type RecorderStats struct {
	Decisions uint64            `json:"decisions"`
	Admitted  uint64            `json:"admitted"`
	Evicted   uint64            `json:"evicted"`
	Resident  int               `json:"resident"`
	ByReason  map[string]uint64 `json:"by_reason"`
}

// Recorder decides and stores tail-retained traces. Create with
// NewRecorder; all methods are safe for concurrent use and lock-free.
type Recorder struct {
	slots       [RetainedTraces]atomic.Pointer[RetainedTrace]
	cursor      atomic.Uint64
	decisions   atomic.Uint64
	admitted    atomic.Uint64
	evicted     atomic.Uint64
	byReason    [5]atomic.Uint64 // indexed like RetainReasons
	bucketCount []atomic.Uint64  // slow-policy admissions per bucket
	bucketMax   []atomic.Uint64  // float bits of the slowest retained latency per bucket
}

// NewRecorder builds a recorder with an empty ring.
func NewRecorder() *Recorder {
	return &Recorder{
		bucketCount: make([]atomic.Uint64, len(DefLatencyBuckets)+1),
		bucketMax:   make([]atomic.Uint64, len(DefLatencyBuckets)+1),
	}
}

// Decide evaluates the retention policy for one finished request and
// returns whether to retain its trace, with the matched reasons in
// RetainReasons order. Each Decide call consumes one sampling ordinal,
// so the 1-in-K pick is deterministic in request arrival order.
func (r *Recorder) Decide(s Sample) (bool, []string) {
	ordinal := r.decisions.Add(1)
	var reasons []string
	if s.Forced {
		reasons = append(reasons, "forced")
		r.byReason[0].Add(1)
	}
	if s.Err {
		reasons = append(reasons, "error")
		r.byReason[1].Add(1)
	}
	if s.Shed {
		reasons = append(reasons, "shed")
		r.byReason[2].Add(1)
	}
	if r.slowRetain(s.Seconds) {
		reasons = append(reasons, "slow")
		r.byReason[3].Add(1)
	}
	if ordinal%sampleEvery == 1 {
		reasons = append(reasons, "sample")
		r.byReason[4].Add(1)
	}
	return len(reasons) > 0, reasons
}

// slowRetain is the per-bucket slow policy: admit the first
// slowestPerBucket requests of a bucket, then only new bucket maxima.
func (r *Recorder) slowRetain(seconds float64) bool {
	i := sort.SearchFloat64s(DefLatencyBuckets, seconds)
	for {
		c := r.bucketCount[i].Load()
		if c >= slowestPerBucket {
			break
		}
		if r.bucketCount[i].CompareAndSwap(c, c+1) {
			r.raiseBucketMax(i, seconds)
			return true
		}
	}
	for {
		old := r.bucketMax[i].Load()
		if seconds <= math.Float64frombits(old) {
			return false
		}
		if r.bucketMax[i].CompareAndSwap(old, math.Float64bits(seconds)) {
			return true
		}
	}
}

func (r *Recorder) raiseBucketMax(i int, seconds float64) {
	for {
		old := r.bucketMax[i].Load()
		if seconds <= math.Float64frombits(old) {
			return
		}
		if r.bucketMax[i].CompareAndSwap(old, math.Float64bits(seconds)) {
			return
		}
	}
}

// Put stores a retained trace, evicting the oldest slot when the ring
// is full. The ring is append-ordered: slots are claimed by an atomic
// cursor, so concurrent Puts never block each other.
func (r *Recorder) Put(id string, data []byte, seconds float64, reasons []string) {
	i := (r.cursor.Add(1) - 1) % uint64(len(r.slots))
	old := r.slots[i].Swap(&RetainedTrace{ID: id, Data: data, Seconds: seconds, Reasons: reasons})
	r.admitted.Add(1)
	if old != nil {
		r.evicted.Add(1)
	}
}

// Get returns the retained trace bytes for id. A miss means the request
// was never retained or its slot has been evicted.
func (r *Recorder) Get(id string) ([]byte, bool) {
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.ID == id {
			return e.Data, true
		}
	}
	return nil, false
}

// Retained lists the ring's current entries, newest first, without
// bodies — the introspection view.
func (r *Recorder) Retained() []RetainedInfo {
	n := len(r.slots)
	cur := r.cursor.Load()
	out := make([]RetainedInfo, 0, n)
	for k := 0; k < n; k++ {
		// Walk backwards from the most recently claimed slot.
		i := (cur + uint64(n) - 1 - uint64(k)) % uint64(n)
		if e := r.slots[i].Load(); e != nil {
			out = append(out, RetainedInfo{ID: e.ID, Bytes: len(e.Data), Seconds: e.Seconds, Reasons: e.Reasons})
		}
	}
	return out
}

// Stats snapshots the retention counters; Resident scans the ring.
func (r *Recorder) Stats() RecorderStats {
	resident := 0
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			resident++
		}
	}
	by := make(map[string]uint64, len(RetainReasons))
	for i, name := range RetainReasons {
		by[name] = r.byReason[i].Load()
	}
	return RecorderStats{
		Decisions: r.decisions.Load(),
		Admitted:  r.admitted.Load(),
		Evicted:   r.evicted.Load(),
		Resident:  resident,
		ByReason:  by,
	}
}
