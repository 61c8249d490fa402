package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// The test binary stands in for the bench binary as its own child: batch
// ops and the daemon re-execute it.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(child(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smokeScale is every workload at reduced size: a 5k-line C program, the
// internal/qual slice of the go-self snapshot, four requests per client.
var smokeScale = scale{
	cLines:     5_000,
	goPattern:  "internal/qual",
	goPins:     goQualPins,
	editLines:  3_000,
	mixedLines: 1_000,
	cap:        4,
}

func smokeRun(t *testing.T, name string, trace bool, sc scale) *outcome {
	t.Helper()
	var log bytes.Buffer
	o := options{workload: name, seed: 11, seconds: 1, trace: trace, sc: sc, work: t.TempDir()}
	res, _, err := runOnce(o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	if testing.Verbose() {
		t.Log(log.String())
	}
	return res
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smokeRun(t, w.name, trace, smokeScale)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, d.name, v, d.unit)
				}
			}
			if trace {
				if c := res.Metrics["trace.coverage"].Value; c < 0.98 {
					t.Errorf("%s: trace.coverage %.4f < 0.98", w.name, c)
				}
				continue
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}

// A wrong known answer must fail the ops and the exit status.
func TestWrongAnswerFails(t *testing.T) {
	sc := smokeScale
	sc.goPins.Functions++
	res := smokeRun(t, "go-self", false, sc)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("wrong pins: correct=%t failed=%d", res.Correct, res.Failed)
	}
	if code := printOutcome(res, nil, io.Discard); code == 0 {
		t.Fatalf("wrong pins: exit status 0")
	}
}

func TestSnapshotDigest(t *testing.T) {
	got, err := snapshotDigest("testdata/goself")
	if err != nil {
		t.Fatal(err)
	}
	if got != goSelfDigest {
		t.Fatalf("testdata/goself digest %s, want %s: the frozen snapshot changed", got, goSelfDigest)
	}
}

// The names and units this program prints are the contract's.
func TestMetricsMatchContract(t *testing.T) {
	var spec contract
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(specNames, " ") {
		t.Errorf("workloads %v, contract %v", names, specNames)
	}
	same := func(kind string, defs []metricDef, spec []metricDef) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics, contract %d", kind, len(defs), len(spec))
			return
		}
		for i := range defs {
			if defs[i] != spec[i] {
				t.Errorf("%s metric %d: %v, contract %v", kind, i, defs[i], spec[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	s := func(vs ...float64) *series {
		x := &series{}
		for _, v := range vs {
			x.add(v)
		}
		return x
	}
	for _, tc := range []struct {
		old, cur *series
		better   string
		want     string
	}{
		{s(100, 101, 99, 100, 100), s(104, 105, 103, 104, 104), "lower", "ok"},
		{s(100, 101, 99, 100, 100), s(120, 121, 119, 120, 120), "lower", "REGRESSION"},
		{s(100, 101, 99, 100, 100), s(80, 81, 79, 80, 80), "higher", "REGRESSION"},
		{s(100, 150, 60, 100, 130), s(100, 101, 99, 100, 100), "lower", "unresolved"},
		{s(100, 150, 60, 100, 130), s(50, 51, 49, 50, 50), "lower", "better"},
	} {
		if got := judge(tc.old, tc.cur, tc.better, 0.1); got != tc.want {
			t.Errorf("judge(%v, %v, %s) = %s, want %s", tc.old.Values, tc.cur.Values, tc.better, got, tc.want)
		}
	}
}
