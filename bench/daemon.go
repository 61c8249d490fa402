package main

// Daemon workloads: the analysis server runs as a child process (this
// binary, re-executed) with server.New(server.Config{}) defaults, on
// 127.0.0.1:0. A bench-side /bench/memstats route reports the server
// process's allocation total, CPU time and peak RSS. Two closed-loop
// clients drive it over at most two keep-alive connections.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// childServe runs the server until its stdin closes.
func childServe(stdin io.Reader, stdout, stderr io.Writer) int {
	mux := http.NewServeMux()
	mux.Handle("/", server.New(server.Config{}))
	mux.HandleFunc("/bench/memstats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(readServerStats())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	hs := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "http://%s\n", ln.Addr())
	io.Copy(io.Discard, stdin) // the parent closes stdin to stop the server
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	<-done
	return 0
}

// serverStats is the /bench/memstats answer.
type serverStats struct {
	TotalAlloc uint64 `json:"total_alloc"`
	CPUNanos   int64  `json:"cpu_ns"`
	MaxRSSKB   int64  `json:"maxrss_kb"`
}

func readServerStats() serverStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return serverStats{ms.TotalAlloc, ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss}
}

// daemon is a running server child and the client side of it.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	drain  chan struct{} // closed once the child's stdout is at EOF
	url    string
	client *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"=serve")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logPath := filepath.Join(dir, "daemon.log")
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	cmd.Stderr = log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stdin: stdin, drain: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drain)
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		addr <- strings.TrimSpace(line)
		io.Copy(io.Discard, r)
	}()
	select {
	case d.url = <-addr:
	case <-time.After(30 * time.Second):
	}
	if !strings.HasPrefix(d.url, "http://") {
		d.stop()
		out, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("daemon did not start: %s", bytes.TrimSpace(out[max(0, len(out)-1000):]))
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return d, nil
}

// stop closes the server's stdin, which shuts it down, and waits for it.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.stdin.Close()
	select {
	case <-d.drain:
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-d.drain
	}
	return d.cmd.Wait()
}

// post sends one analyze request and reads the whole answer.
func (d *daemon) post(body []byte) (status int, xcache string, resp []byte, err error) {
	r, err := d.client.Post(d.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache"), resp, err
}

func (d *daemon) stats() (serverStats, error) {
	var s serverStats
	r, err := d.client.Get(d.url + "/bench/memstats")
	if err != nil {
		return s, err
	}
	defer r.Body.Close()
	return s, json.NewDecoder(r.Body).Decode(&s)
}

// noEvictions checks that the server's caches, at their default bounds,
// have evicted nothing: the traced replay's unbounded caches then hold
// what the server holds.
func (d *daemon) noEvictions() error {
	r, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return err
	}
	defer r.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		return fmt.Errorf("/metrics: %v", err)
	}
	if n := m.ResultCache.Evictions + m.SummaryCache.Evictions + m.Sessions.Evictions; n > 0 {
		return fmt.Errorf("the server evicted %d cache entries; the traced replay, which evicts none, no longer describes it", n)
	}
	return nil
}

// answer is one request's outcome as a client saw it.
type answer struct {
	q       request
	status  int
	xcache  string
	resp    []byte
	err     error
	latency time.Duration
}

// verify checks one answer: transport, status, X-Cache, byte identity of
// a hit with the warm response it must repeat, and the known answer.
// checked memoizes the known-answer check of each warm response.
func verify(a answer, warm [][]byte, checked map[int]error) error {
	switch {
	case a.err != nil:
		return a.err
	case a.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(a.resp))
	case a.xcache != a.q.xcache():
		return fmt.Errorf("%s request answered with X-Cache %q", a.q.kind, a.xcache)
	}
	if a.q.kind != "hit" {
		return a.q.check(a.resp)
	}
	if !bytes.Equal(a.resp, warm[a.q.warm]) {
		return fmt.Errorf("hit differs from the miss that filled its cache entry")
	}
	err, ok := checked[a.q.warm]
	if !ok {
		err = a.q.check(a.resp)
		checked[a.q.warm] = err
	}
	return err
}

// daemonStage is a set-up daemon workload: server started, warm requests
// answered.
type daemonStage struct {
	in   *inputs
	d    *daemon
	warm [][]byte
}

func setupDaemon(in *inputs, dir string) (*daemonStage, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	s := &daemonStage{in: in, d: d}
	for _, q := range in.warm {
		status, _, resp, err := d.post(q.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm request: %v", err)
		}
		s.warm = append(s.warm, resp)
	}
	return s, nil
}

func (s *daemonStage) close() {
	if err := s.d.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: daemon exit: %v\n", err)
	}
}

// measure runs the clients' closed loops until the window has passed,
// each client stopping at its next block boundary, then checks every
// answer. Server CPU and allocation are read across exactly the measured
// requests.
func (s *daemonStage) measure(window time.Duration) (*measured, error) {
	before, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	answers := make([][]answer, len(s.in.clients))
	var wg sync.WaitGroup
	for c, reqs := range s.in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, q := range reqs {
				if j%s.in.block == 0 && time.Since(start) >= window {
					break
				}
				t := time.Now()
				status, xcache, resp, err := s.d.post(q.body)
				a := answer{q: q, status: status, xcache: xcache, resp: resp, err: err, latency: time.Since(t)}
				answers[c] = append(answers[c], a)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	after, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	if err := s.d.noEvictions(); err != nil {
		return nil, err
	}

	m := &measured{byKind: map[string][]float64{}}
	checked := map[int]error{}
	for _, as := range answers {
		for _, a := range as {
			m.attempted++
			if err := verify(a, s.warm, checked); err != nil {
				m.fail(fmt.Errorf("%s: %v", a.q.kind, err))
				continue
			}
			ms := a.latency.Seconds() * 1000
			m.latencies = append(m.latencies, ms)
			m.byKind[a.q.kind] = append(m.byKind[a.q.kind], ms)
		}
	}
	n := float64(m.attempted)
	m.metrics = map[string]float64{
		"ops_per_s":       float64(len(m.latencies)) / end.Sub(start).Seconds(),
		"cpu_ms_per_op":   float64(after.CPUNanos-before.CPUNanos) / 1e6 / n,
		"alloc_mb_per_op": float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n,
		"peak_rss_mb":     float64(after.MaxRSSKB) * 1024 / 1e6,
	}
	return m, nil
}
