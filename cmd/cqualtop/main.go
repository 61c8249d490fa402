// Command cqualtop is a terminal dashboard for a running cquald
// daemon: the flight recorder's front panel. It polls the daemon's
// JSON surfaces — /metrics for the counter totals, /v1/introspect for
// live worker/cache/retention state, and /v1/events for the structured
// journal tail — and renders one compact refreshing screen: request
// throughput, the result cache's hit rate, SLO burn rates per window,
// retained traces with their retention reasons, and the newest journal
// events.
//
// Usage:
//
//	cqualtop [-addr URL] [-interval d] [-events n] [-once]
//
// The display is plain ANSI (a home-and-clear escape between frames,
// nothing else), so it works in any terminal and in `watch`. -once
// prints a single frame and exits — the scripting and CI mode — and
// needs no TTY at all. Event tails accumulate across frames: each poll
// resumes the journal from the last seen sequence number, so a slow
// interval drops nothing that the daemon's ring still holds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8710", "base URL of the cquald daemon")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	events := flag.Int("events", 8, "journal events shown in the tail")
	once := flag.Bool("once", false, "print one frame and exit (no ANSI clear; for scripts and CI)")
	flag.Parse()

	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "cqualtop: -interval must be positive")
		os.Exit(2)
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "cqualtop: unexpected arguments")
		os.Exit(2)
	}
	st := newTopState(*addr, *events)
	if *once {
		if err := st.runOnce(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cqualtop:", err)
			os.Exit(1)
		}
		return
	}
	for {
		var frame strings.Builder
		if err := st.runOnce(&frame); err != nil {
			// The daemon may be restarting; say so and keep polling.
			fmt.Fprintf(os.Stdout, "\x1b[H\x1b[2Jcqualtop: %s: %v (retrying every %v)\n", *addr, err, *interval)
		} else {
			fmt.Fprint(os.Stdout, "\x1b[H\x1b[2J"+frame.String())
		}
		time.Sleep(*interval)
	}
}

// topState carries what persists between frames: the HTTP client, the
// journal resume point, the rolling event tail, and the previous
// counter sample for rate computation.
type topState struct {
	base      string
	client    *http.Client
	maxEvents int

	since  uint64      // journal resume point (last seen Seq)
	events []obs.Event // rolling tail, oldest first

	prev   *server.Metrics // previous frame's counters, nil on the first
	prevAt time.Time
	now    func() time.Time // test seam
}

func newTopState(base string, maxEvents int) *topState {
	if maxEvents <= 0 {
		maxEvents = 8
	}
	return &topState{
		base:      strings.TrimRight(base, "/"),
		client:    &http.Client{Timeout: 10 * time.Second},
		maxEvents: maxEvents,
		now:       time.Now,
	}
}

// getJSON fetches one daemon endpoint into out.
func (st *topState) getJSON(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, st.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runOnce polls the three surfaces and renders one frame to w. It is
// the whole dashboard; main only decides how often to call it and
// whether to clear the screen in between.
func (st *topState) runOnce(w io.Writer) error {
	var m server.Metrics
	if err := st.getJSON("/metrics", &m); err != nil {
		return err
	}
	var intro server.Introspection
	if err := st.getJSON("/v1/introspect", &intro); err != nil {
		return err
	}
	var ev server.EventsResponse
	if err := st.getJSON(fmt.Sprintf("/v1/events?since=%d", st.since), &ev); err != nil {
		return err
	}
	st.since = ev.Next
	st.events = append(st.events, ev.Events...)
	if len(st.events) > st.maxEvents {
		st.events = st.events[len(st.events)-st.maxEvents:]
	}

	now := st.now()
	st.render(w, &m, &intro, now)
	st.prev, st.prevAt = &m, now
	return nil
}

// render writes one frame. Sections, top to bottom: header, request
// totals with rates, caches, solver, SLO burn rates, flight
// recorder, retained traces, journal tail.
func (st *topState) render(w io.Writer, m *server.Metrics, intro *server.Introspection, now time.Time) {
	up := time.Duration(m.UptimeMS * float64(time.Millisecond)).Round(time.Second)
	fmt.Fprintf(w, "cqualtop — %s — up %v\n\n", st.base, up)

	rate := ""
	if st.prev != nil {
		if dt := now.Sub(st.prevAt).Seconds(); dt > 0 && m.Requests >= st.prev.Requests {
			rate = fmt.Sprintf(" (%.1f/s)", float64(m.Requests-st.prev.Requests)/dt)
		}
	}
	fmt.Fprintf(w, "requests  %d%s · analyses %d · failures %d · timeouts %d · in-flight %d/%d (running %d)\n",
		m.Requests, rate, m.Analyses, m.Failures, m.Timeouts,
		intro.Workers.InFlight, intro.Workers.MaxConcurrent, intro.Workers.Running)
	fmt.Fprintf(w, "caches    result %s\n", cacheLine(intro.Caches.Result))
	fmt.Fprintf(w, "solver    %d vars · %d constraints over %d run(s)\n",
		m.Solver.Vars, m.Solver.Constraints, m.Stages.Runs)

	fmt.Fprintf(w, "\nslo       (burn <1 inside budget, >1 burning)\n")
	if len(intro.SLOs) == 0 {
		fmt.Fprintln(w, "  none declared")
	}
	for _, s := range intro.SLOs {
		labels := make([]string, 0, len(s.Burn))
		for label := range s.Burn {
			labels = append(labels, label)
		}
		sort.Slice(labels, func(i, j int) bool { return windowRank(labels[i]) < windowRank(labels[j]) })
		parts := make([]string, len(labels))
		worst := 0.0
		for i, label := range labels {
			parts[i] = fmt.Sprintf("%s %.2f", label, s.Burn[label])
			if s.Burn[label] > worst {
				worst = s.Burn[label]
			}
		}
		status := "ok"
		if worst > 1 {
			status = "BURNING"
		}
		fmt.Fprintf(w, "  %-10s %v @ %.2f%%: %s  [%s]\n",
			s.Endpoint, time.Duration(s.ObjectiveMS*float64(time.Millisecond)), s.Target*100,
			strings.Join(parts, " · "), status)
	}

	ret := intro.Retention
	fmt.Fprintf(w, "\nflight    %d decision(s) · %d admitted · %d resident · %d evicted · journal %d event(s), %d dropped\n",
		ret.Decisions, ret.Admitted, ret.Resident, ret.Evicted, intro.Journal.Entries, intro.Journal.Dropped)
	reasons := make([]string, 0, len(ret.ByReason))
	for _, r := range obs.RetainReasons {
		if n := ret.ByReason[r]; n > 0 {
			reasons = append(reasons, fmt.Sprintf("%s %d", r, n))
		}
	}
	if len(reasons) > 0 {
		fmt.Fprintf(w, "          retained by reason: %s\n", strings.Join(reasons, " · "))
	}
	fmt.Fprintf(w, "traces    (newest first; GET %s/v1/traces/<id>)\n", st.base)
	if len(ret.Traces) == 0 {
		fmt.Fprintln(w, "  none retained yet")
	}
	for i, tr := range ret.Traces {
		if i == 5 {
			fmt.Fprintf(w, "  … %d more resident\n", len(ret.Traces)-i)
			break
		}
		fmt.Fprintf(w, "  %-34s %8.1fms  %6s  [%s]\n",
			tr.ID, tr.Seconds*1000, byteCount(int64(tr.Bytes)), strings.Join(tr.Reasons, ","))
	}

	fmt.Fprintf(w, "\nevents    (journal tail; next seq %d)\n", intro.Journal.NextSeq)
	if len(st.events) == 0 {
		fmt.Fprintln(w, "  none yet")
	}
	for _, e := range st.events {
		attrs := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			attrs = append(attrs, k)
		}
		sort.Strings(attrs)
		for i, k := range attrs {
			attrs[i] = k + "=" + e.Attrs[k]
		}
		fmt.Fprintf(w, "  %s %-5s %-16s %s %s\n",
			time.UnixMilli(e.TimeMS).Format("15:04:05"), e.Level, e.Type, e.Message, strings.Join(attrs, " "))
	}
}

// cacheLine renders one cache stat block as "entries (bytes) hit-rate".
func cacheLine(s cache.Stats) string {
	total := s.Hits + s.Misses
	rate := "–"
	if total > 0 {
		rate = fmt.Sprintf("%.0f%%", 100*float64(s.Hits)/float64(total))
	}
	line := fmt.Sprintf("%d entr%s %s hit", s.Entries, plural(s.Entries, "y", "ies"), rate)
	if s.Bytes > 0 {
		line += " " + byteCount(s.Bytes)
	}
	return line
}

// plural picks a suffix by count.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// windowRank orders burn-window labels short-to-long ("5m" < "1h" < "6h").
func windowRank(label string) time.Duration {
	d, err := time.ParseDuration(label)
	if err != nil {
		return time.Duration(1<<62 - 1)
	}
	return d
}

// byteCount renders a size compactly (B/KB/MB).
func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
