package main

// Batch workloads: every op is a fresh child process (this binary,
// re-executed) making the calls cqual -json makes, so no process-wide
// cache can carry work from one op to the next. The child reports its
// allocation total on a trailing stdout line; CPU time and peak RSS come
// from the child's rusage.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/driver"
)

// childEnv selects a child mode of this binary: "batch" or "serve".
const childEnv = "BENCH_CHILD"

const allocTrailer = "bench-total-alloc "

// childBatch is one batch op: cqual -json's pipeline over the arguments.
func childBatch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	lang := fs.String("lang", "c", "front end")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := driver.RunContext(context.Background(), driver.Config{Lang: *lang}, driver.FileSources(fs.Args()...))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	out, err := res.JSON()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(stdout, "%s\n%s%d\n", out, allocTrailer, ms.TotalAlloc)
	return 0
}

// batchOp is one measured child run.
type batchOp struct {
	wall, cpu time.Duration
	allocMB   float64
	rssMB     float64
	report    []byte
}

// runBatchOp spawns one op and waits for it: spawn to exit is the
// verdict time.
func runBatchOp(args []string) (batchOp, error) {
	self, err := os.Executable()
	if err != nil {
		return batchOp{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=batch")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Run()
	op := batchOp{wall: time.Since(start)}
	if err != nil {
		return op, fmt.Errorf("batch op: %v: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	op.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	op.rssMB = float64(ru.Maxrss) * 1024 / 1e6
	i := bytes.LastIndex(out.Bytes(), []byte("\n"+allocTrailer))
	if i < 0 {
		return op, fmt.Errorf("batch op: no allocation trailer")
	}
	alloc, err := strconv.ParseUint(string(bytes.TrimSpace(out.Bytes()[i+1+len(allocTrailer):])), 10, 64)
	if err != nil {
		return op, fmt.Errorf("batch op: allocation trailer: %v", err)
	}
	op.allocMB = float64(alloc) / 1e6
	op.report = out.Bytes()[:i]
	return op, nil
}

// batchStage is a set-up batch workload.
type batchStage struct {
	in     *inputs
	maxOps int
}

// setupBatch prepares the inputs and runs one unmeasured op, which also
// brings the binary and the inputs (for Go, the standard library
// sources) into the page cache.
func setupBatch(in *inputs, maxOps int) (*batchStage, error) {
	if _, err := runBatchOp(in.args); err != nil {
		return nil, fmt.Errorf("warm-up: %v", err)
	}
	return &batchStage{in: in, maxOps: maxOps}, nil
}

func (b *batchStage) close() {}

// measure runs ops one after another until the window has passed (at
// least minOps, at most maxOps) and checks every report.
func (b *batchStage) measure(window time.Duration) (*measured, error) {
	m := &measured{}
	var cpu, alloc, rss []float64
	start := time.Now()
	for i := 0; i < b.maxOps && (i < minOps || time.Since(start) < window); i++ {
		op, err := runBatchOp(b.in.args)
		m.attempted++
		if err == nil {
			err = b.in.check(op.report)
		}
		if err != nil {
			m.fail(err)
			continue
		}
		m.latencies = append(m.latencies, op.wall.Seconds()*1000)
		cpu = append(cpu, op.cpu.Seconds()*1000)
		alloc = append(alloc, op.allocMB)
		rss = append(rss, op.rssMB)
	}
	if len(m.latencies) == 0 {
		return m, nil
	}
	elapsed := time.Since(start).Seconds()
	m.metrics = map[string]float64{
		"ops_per_s":       float64(len(m.latencies)) / elapsed,
		"cpu_ms_per_op":   median(cpu),
		"alloc_mb_per_op": median(alloc),
		"peak_rss_mb":     median(rss),
	}
	return m, nil
}
