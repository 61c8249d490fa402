package obs

// SLO burn-rate tracking. An SLOTracker pairs one endpoint with a
// declared latency objective ("99% of analyze requests complete within
// 250ms") and classifies every finished request as good or bad — bad
// when it failed or exceeded the objective. Counts land in a ring of
// epoch-stamped 10-second slots, so multi-window burn rates are
// computed on demand at scrape time from the same atomics the request
// path writes; there is no background goroutine and no lock.
//
// Burn rate is the standard SRE definition: the observed bad fraction
// over a window divided by the budgeted bad fraction (1 − target). A
// burn rate of 1.0 spends the error budget exactly at the sustainable
// pace; 14.4 over 5 minutes is the classic page-now threshold.
//
// The slot ring is sized for the longest window. Writing a slot whose
// epoch has moved on resets it with a CAS on the epoch followed by
// plain stores of the counters — a concurrent Observe between those two
// steps can lose a handful of counts at a slot boundary. That race is
// benign (it perturbs a 10-second slice of a multi-minute window) and
// is the price of a lock-free request path; tests pin the clock so they
// never cross a boundary.

import (
	"fmt"
	"sync/atomic"
	"time"
)

const sloSlotSeconds = 10

// BurnWindows are the burn-rate windows rendered per SLO, shortest
// first. 5m/1h is the conventional fast-burn alert pair; 6h catches
// slow leaks.
var BurnWindows = []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour}

// WindowLabel renders a burn window as a metric label value ("5m",
// "1h", "6h").
func WindowLabel(w time.Duration) string {
	if w < time.Hour {
		return fmt.Sprintf("%dm", int(w/time.Minute))
	}
	return fmt.Sprintf("%dh", int(w/time.Hour))
}

// DefSLOTarget is the success-fraction objective applied when a
// latency objective is declared without an explicit target.
const DefSLOTarget = 0.99

type sloSlot struct {
	epoch atomic.Int64
	good  atomic.Uint64
	bad   atomic.Uint64
}

// SLOTracker classifies requests against one endpoint's latency
// objective and answers burn-rate queries over sliding windows. Safe
// for concurrent use; Observe and BurnRate are lock-free.
type SLOTracker struct {
	endpoint  string
	objective float64 // seconds
	target    float64 // success fraction, e.g. 0.99
	clock     func() time.Time
	slots     []sloSlot
}

// NewSLOTracker declares an objective for endpoint: within `objective`
// latency for at least `target` fraction of requests (0 selects
// DefSLOTarget). The ring covers the longest BurnWindows entry.
func NewSLOTracker(endpoint string, objective time.Duration, target float64) *SLOTracker {
	if target <= 0 || target >= 1 {
		target = DefSLOTarget
	}
	longest := BurnWindows[len(BurnWindows)-1]
	n := int(longest/(sloSlotSeconds*time.Second)) + 1
	return &SLOTracker{
		endpoint:  endpoint,
		objective: objective.Seconds(),
		target:    target,
		clock:     time.Now,
		slots:     make([]sloSlot, n),
	}
}

// SetClock overrides the time source (tests).
func (t *SLOTracker) SetClock(clock func() time.Time) { t.clock = clock }

// Endpoint returns the endpoint this tracker guards.
func (t *SLOTracker) Endpoint() string { return t.endpoint }

// Objective returns the latency objective in seconds.
func (t *SLOTracker) Objective() float64 { return t.objective }

// Target returns the success-fraction objective.
func (t *SLOTracker) Target() float64 { return t.target }

// Observe classifies one finished request: bad when it failed or
// exceeded the latency objective.
func (t *SLOTracker) Observe(seconds float64, failed bool) {
	epoch := t.clock().Unix() / sloSlotSeconds
	s := &t.slots[int(epoch)%len(t.slots)]
	if s.epoch.Load() != epoch {
		if s.epoch.CompareAndSwap(s.epoch.Load(), epoch) {
			s.good.Store(0)
			s.bad.Store(0)
		}
	}
	if failed || seconds > t.objective {
		s.bad.Add(1)
	} else {
		s.good.Add(1)
	}
}

// Totals sums good and bad counts over the trailing window.
func (t *SLOTracker) Totals(window time.Duration) (good, bad uint64) {
	now := t.clock().Unix() / sloSlotSeconds
	span := int64(window / (sloSlotSeconds * time.Second))
	if span < 1 {
		span = 1
	}
	for i := range t.slots {
		s := &t.slots[i]
		e := s.epoch.Load()
		if e > now || now-e >= span {
			continue
		}
		good += s.good.Load()
		bad += s.bad.Load()
	}
	return good, bad
}

// BurnRate returns the error-budget burn rate over the trailing window:
// the observed bad fraction divided by the budgeted bad fraction
// (1 − target). Zero traffic burns nothing.
func (t *SLOTracker) BurnRate(window time.Duration) float64 {
	good, bad := t.Totals(window)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - t.target)
}
