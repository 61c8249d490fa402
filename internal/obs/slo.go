package obs

// SLO burn-rate tracking. An SLOTracker holds one latency objective
// ("99% of analyze requests complete within 250ms") and classifies every finished request as good or bad — bad
// when it failed or exceeded the objective. Counts land in a ring of
// epoch-stamped 10-second slots, so multi-window burn rates are
// computed on demand at scrape time from the same atomics the request
// path writes; there is no background goroutine and no lock.
//
// Burn rate is the standard SRE definition: the observed bad fraction
// over a window divided by the budgeted bad fraction (1 − SLOTarget). A
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

// SLOTarget is the success-fraction objective of every SLOTracker.
const SLOTarget = 0.99

type sloSlot struct {
	epoch atomic.Int64
	good  atomic.Uint64
	bad   atomic.Uint64
}

// SLOTracker classifies requests against a latency objective and
// answers burn-rate queries over sliding windows. Safe for concurrent
// use; Observe and BurnRate are lock-free.
type SLOTracker struct {
	objective float64 // seconds
	clock     func() time.Time
	slots     []sloSlot
}

// NewSLOTracker declares an objective: within `objective` latency for
// at least SLOTarget of requests. The ring covers the longest
// BurnWindows entry.
func NewSLOTracker(objective time.Duration) *SLOTracker {
	longest := BurnWindows[len(BurnWindows)-1]
	n := int(longest/(sloSlotSeconds*time.Second)) + 1
	return &SLOTracker{
		objective: objective.Seconds(),
		clock:     time.Now,
		slots:     make([]sloSlot, n),
	}
}

// Objective returns the latency objective in seconds.
func (t *SLOTracker) Objective() float64 { return t.objective }

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

// totals sums good and bad counts over the trailing window.
func (t *SLOTracker) totals(window time.Duration) (good, bad uint64) {
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
// (1 − SLOTarget). Zero traffic burns nothing.
func (t *SLOTracker) BurnRate(window time.Duration) float64 {
	good, bad := t.totals(window)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - SLOTarget)
}
