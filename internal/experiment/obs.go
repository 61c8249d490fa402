package experiment

// Flight-recorder overhead measurement: what the always-on recorder
// costs a request on the server's warm path. Two identically configured
// in-process servers — one recording (the shipped default: per-request
// tracer, tail-retention decision, exemplar attachment), one with
// Config.DisableRecorder — serve the same repeated cache-hit request;
// the block reports median per-request latency for both arms and their
// ratio. Cache hits are the right denominator: they are the cheapest
// request the server answers, so the recorder's fixed per-request cost
// shows up at its largest relative size — a ≤5% overhead here bounds
// the overhead everywhere.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// getJSON decodes one GET response body.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ObsResult is the recorder-overhead measurement.
type ObsResult struct {
	Requests int           // timed requests per arm (after warmup)
	Rounds   int           // latency samples the medians are drawn from
	WarmOn   time.Duration // median warm-path request latency, recorder on
	WarmOff  time.Duration // median warm-path request latency, recorder off
	Retained int           // traces resident in the recording arm's ring afterwards
	Events   int           // journal events the recording arm accumulated
}

// Overhead is the headline ratio: recording-on latency over
// recording-off latency, minus one (0.03 = 3% slower). Zero or
// negative off-latency yields zero.
func (r ObsResult) Overhead() float64 {
	if r.WarmOff <= 0 {
		return 0
	}
	return r.WarmOn.Seconds()/r.WarmOff.Seconds() - 1
}

// obsProgram is the measured request body: a small clean program, so
// the warm path is a pure result-cache hit and the recorder's fixed
// cost dominates the measurement rather than solver time.
const obsProgram = `{"sources":[{"path":"bench.c","text":"int strlen(const char *s);\nint probe(const char *s) { return strlen(s); }\nvoid use(char *buf) { probe(buf); }"}]}`

// obsArm times one server configuration: a warmup miss plus hits, then
// rounds of timed single-request batches. The returned slice holds one
// median-of-batch duration per round.
func obsArm(cfg server.Config, requests, rounds int) ([]time.Duration, *httptest.Server, error) {
	ts := httptest.NewServer(server.New(cfg))
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(obsProgram))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("analyze: status %d", resp.StatusCode)
		}
		return nil
	}
	// Warmup: the first request is the miss that populates the cache;
	// a few more settle connection reuse.
	for i := 0; i < 4; i++ {
		if err := post(); err != nil {
			ts.Close()
			return nil, nil, err
		}
	}
	meds := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		lat := make([]time.Duration, 0, requests)
		for i := 0; i < requests; i++ {
			start := time.Now()
			if err := post(); err != nil {
				ts.Close()
				return nil, nil, err
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		meds = append(meds, lat[len(lat)/2])
	}
	return meds, ts, nil
}

// MeasureObs A/Bs the warm path with the flight recorder on (the
// shipped default) and off (Config.DisableRecorder, the baseline that
// exists only for this measurement). Both arms run the same request
// count against freshly started servers; the reported latencies are
// medians of per-round medians, which shrugs off scheduler noise on a
// loaded machine.
func MeasureObs(requests, rounds int) (ObsResult, error) {
	if requests < 1 {
		requests = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	res := ObsResult{Requests: requests, Rounds: rounds}

	on, tsOn, err := obsArm(server.Config{}, requests, rounds)
	if err != nil {
		return res, err
	}
	defer tsOn.Close()
	off, tsOff, err := obsArm(server.Config{DisableRecorder: true}, requests, rounds)
	if err != nil {
		return res, err
	}
	tsOff.Close()

	res.WarmOn = median(on)
	res.WarmOff = median(off)

	// Witness that the recording arm actually recorded: its ring and
	// journal saw the traffic (the off arm's stayed empty by design).
	var intro struct {
		Retention struct {
			Resident int `json:"resident"`
		} `json:"retention"`
		Journal struct {
			NextSeq int `json:"next_seq"`
		} `json:"journal"`
	}
	if err := getJSON(tsOn.URL+"/v1/introspect", &intro); err != nil {
		return res, err
	}
	res.Retained = intro.Retention.Resident
	res.Events = intro.Journal.NextSeq - 1
	return res, nil
}

// median sorts ds and returns its middle element.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
