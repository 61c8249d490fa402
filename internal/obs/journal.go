package obs

// The structured event journal: a typed, bounded, in-memory ring of
// service-level events — session evictions, cache churn, pipeline
// failures, slow requests — each stamped with a
// monotonic sequence number so clients can poll incrementally
// ("give me everything after seq N") and long-poll for the next one.
//
// The journal is the flight recorder's narrative track: where the trace
// ring answers "what did request X spend its time on", the journal
// answers "what has the service been doing". It is deliberately small
// and mutex-guarded — events are service-level (evictions, slow requests),
// not per-constraint, so the lock never sits on an analysis hot path,
// and the /metrics scrape path never touches it.
//
// Two bridges connect the journal to log/slog:
//
//   - Journal.SetMirror(logger) makes every Append also emit one slog
//     record through the given logger, so journal events show up in the
//     operator's existing log stream.
//   - NewJournalHandler(j, inner) is a slog.Handler that records every
//     log record as a journal event (type "log") and forwards it to
//     inner — the fan-in direction, used for the daemon's slow-request
//     log so those records are queryable at /v1/events too.
//
// The two are loop-safe by construction: Append mirrors through the
// raw logger, never through a journal-handler-wrapped one, and the
// handler appends without mirroring.

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
	cap     int
	buf     []Event // ring storage
	start   int     // index of the oldest retained event
	n       int     // retained count
	seq     uint64  // next sequence number (first event gets 1)
	dropped uint64
	wake    chan struct{} // closed and replaced on every append
	mirror  *slog.Logger
	clock   func() time.Time
}

// NewJournal builds a journal retaining at most capacity events
// (capacity <= 0 selects 1024).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{
		cap:   capacity,
		buf:   make([]Event, capacity),
		wake:  make(chan struct{}),
		clock: time.Now,
	}
}

// SetMirror makes every Append also emit one record through logger.
// Pass the raw logger, not one wrapped in NewJournalHandler — the
// handler path appends without mirroring precisely so the two bridges
// cannot loop.
func (j *Journal) SetMirror(logger *slog.Logger) {
	j.mu.Lock()
	j.mirror = logger
	j.mu.Unlock()
}

// SetClock overrides the timestamp source (tests).
func (j *Journal) SetClock(clock func() time.Time) {
	j.mu.Lock()
	j.clock = clock
	j.mu.Unlock()
}

// Append records an event and returns its sequence number. Attrs are
// alternating key, value strings; a trailing odd key is dropped.
func (j *Journal) Append(typ, level, message string, attrs ...string) uint64 {
	return j.append(typ, level, message, kvMap(attrs), true)
}

func kvMap(attrs []string) map[string]string {
	if len(attrs) < 2 {
		return nil
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrs[i]] = attrs[i+1]
	}
	return m
}

func (j *Journal) append(typ, level, message string, attrs map[string]string, mirror bool) uint64 {
	j.mu.Lock()
	j.seq++
	ev := Event{
		Seq:     j.seq,
		TimeMS:  j.clock().UnixMilli(),
		Type:    typ,
		Level:   level,
		Message: message,
		Attrs:   attrs,
	}
	if j.n == j.cap {
		j.start = (j.start + 1) % j.cap
		j.n--
		j.dropped++
	}
	j.buf[(j.start+j.n)%j.cap] = ev
	j.n++
	close(j.wake)
	j.wake = make(chan struct{})
	m := j.mirror
	j.mu.Unlock()

	if mirror && m != nil {
		lv := slog.LevelInfo
		switch level {
		case "warn":
			lv = slog.LevelWarn
		case "error":
			lv = slog.LevelError
		}
		args := make([]any, 0, 2+2*len(attrs))
		args = append(args, "event", typ)
		for k, v := range attrs {
			args = append(args, k, v)
		}
		m.Log(context.Background(), lv, message, args...)
	}
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
		ev := j.buf[(j.start+i)%j.cap]
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

// JournalHandler is a slog.Handler that records every log record as a
// journal event (type "log") and forwards it to an inner handler, so
// existing slog call sites — the daemon's slow-request log — also feed
// the journal without being rewritten.
type JournalHandler struct {
	j     *Journal
	inner slog.Handler
	// attrs accumulated by WithAttrs, applied to every record.
	attrs []slog.Attr
}

// NewJournalHandler wraps inner with journal fan-in. A nil inner
// discards the forwarded records (journal only).
func NewJournalHandler(j *Journal, inner slog.Handler) *JournalHandler {
	return &JournalHandler{j: j, inner: inner}
}

// Enabled implements slog.Handler; the journal records every level the
// inner handler would, and everything at Info and above regardless.
func (h *JournalHandler) Enabled(ctx context.Context, level slog.Level) bool {
	if level >= slog.LevelInfo {
		return true
	}
	return h.inner != nil && h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler.
func (h *JournalHandler) Handle(ctx context.Context, r slog.Record) error {
	attrs := make(map[string]string, r.NumAttrs()+len(h.attrs))
	for _, a := range h.attrs {
		attrs[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.String()
		return true
	})
	level := "info"
	switch {
	case r.Level >= slog.LevelError:
		level = "error"
	case r.Level >= slog.LevelWarn:
		level = "warn"
	}
	h.j.append("log", level, r.Message, attrs, false)
	if h.inner != nil && h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

// WithAttrs implements slog.Handler.
func (h *JournalHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	inner := h.inner
	if inner != nil {
		inner = inner.WithAttrs(attrs)
	}
	all := append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &JournalHandler{j: h.j, inner: inner, attrs: all}
}

// WithGroup implements slog.Handler; groups are flattened (the journal's
// attr map is flat), the inner handler keeps its grouping.
func (h *JournalHandler) WithGroup(name string) slog.Handler {
	inner := h.inner
	if inner != nil {
		inner = inner.WithGroup(name)
	}
	return &JournalHandler{j: h.j, inner: inner, attrs: h.attrs}
}
