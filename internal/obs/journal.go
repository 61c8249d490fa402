package obs

// The structured event journal: a typed, bounded, in-memory ring of
// service-level events — result-cache evictions, pipeline failures —
// each stamped with a monotonic sequence number so clients can poll
// incrementally ("give me everything after seq N") and long-poll for
// the next one.
//
// The journal is the flight recorder's narrative track: where the trace
// ring answers "what did request X spend its time on", the journal
// answers "what has the service been doing". It is deliberately small
// and mutex-guarded — events are service-level (evictions, failures),
// not per-constraint, so the lock never sits on an analysis hot path,
// and the /metrics scrape path never touches it. Every Append also
// emits one slog record through slog.Default(), so journal events show
// up in the operator's existing log stream.

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Event is one journal entry. Attrs is a flat string map (encoding/json
// renders map keys sorted, so serialized events are deterministic for a
// given attribute set).
type Event struct {
	Seq     uint64            `json:"seq"`
	TimeMS  int64             `json:"time_ms"` // unix milliseconds
	Type    string            `json:"type"`
	Level   string            `json:"level"` // "info", "warn", "error"
	Message string            `json:"message"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// JournalStats is a point-in-time snapshot of the journal's counters.
type JournalStats struct {
	// NextSeq is the sequence number the next event will get; the newest
	// retained event has NextSeq-1.
	NextSeq uint64 `json:"next_seq"`
	// Entries is the number of events currently retained.
	Entries int `json:"entries"`
	// Dropped counts events that have fallen off the ring.
	Dropped uint64 `json:"dropped"`
}

// Journal is a bounded in-memory event ring with monotonic sequence
// numbers. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	buf     []Event // ring storage
	start   int     // index of the oldest retained event
	n       int     // retained count
	seq     uint64  // next sequence number (first event gets 1)
	dropped uint64
	wake    chan struct{} // closed and replaced on every append
	mirror  *slog.Logger
	clock   func() time.Time
}

// journalEntries bounds the journal ring.
const journalEntries = 1024

// NewJournal builds an empty journal mirroring to slog.Default().
func NewJournal() *Journal {
	return &Journal{
		buf:    make([]Event, journalEntries),
		wake:   make(chan struct{}),
		mirror: slog.Default(),
		clock:  time.Now,
	}
}

// Append records an event, mirrors it to the journal's logger, and
// returns its sequence number. Attrs are alternating key, value
// strings; a trailing odd key is dropped.
func (j *Journal) Append(typ, level, message string, attrs ...string) uint64 {
	var m map[string]string
	args := []any{"event", typ}
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
			args = append(args, attrs[i], attrs[i+1])
		}
	}
	j.mu.Lock()
	j.seq++
	ev := Event{
		Seq:     j.seq,
		TimeMS:  j.clock().UnixMilli(),
		Type:    typ,
		Level:   level,
		Message: message,
		Attrs:   m,
	}
	if j.n == len(j.buf) {
		j.start = (j.start + 1) % len(j.buf)
		j.n--
		j.dropped++
	}
	j.buf[(j.start+j.n)%len(j.buf)] = ev
	j.n++
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()

	lv := slog.LevelInfo
	switch level {
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	}
	j.mirror.Log(context.Background(), lv, message, args...)
	return ev.Seq
}

// Since returns up to max events with Seq > since, oldest first, plus
// the sequence number to pass as the next `since` (the Seq of the last
// returned event, or since itself when nothing is newer). max <= 0
// means no limit.
func (j *Journal) Since(since uint64, max int) ([]Event, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		ev := j.buf[(j.start+i)%len(j.buf)]
		if ev.Seq <= since {
			continue
		}
		out = append(out, ev)
		if max > 0 && len(out) == max {
			break
		}
	}
	if len(out) == 0 {
		return nil, since
	}
	return out, out[len(out)-1].Seq
}

// Wait blocks until an event with Seq > since exists or the context
// ends, and reports whether new events are available. It is the
// long-poll primitive behind GET /v1/events.
func (j *Journal) Wait(ctx context.Context, since uint64) bool {
	for {
		j.mu.Lock()
		ready := j.seq > since
		wake := j.wake
		j.mu.Unlock()
		if ready {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-wake:
		}
	}
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{NextSeq: j.seq + 1, Entries: j.n, Dropped: j.dropped}
}
