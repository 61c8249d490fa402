package driver

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

const sessProgV1 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

const sessProgV2 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); probe(buf); }
`

// normalizeJSON strips the run-dependent part of a report — timings —
// so session and cold output can be compared as rendered bytes.
func normalizeJSON(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "timings")
	return m
}

// checkSessionMatchesCold runs every round through one session and
// cold, requiring identical reports once timings are removed.
func checkSessionMatchesCold(t *testing.T, cfg Config, path string, rounds []string) {
	t.Helper()
	sess := NewSession(cfg)
	for round, src := range rounds {
		sources := []Source{TextSource(path, src)}
		got, err := sess.RunDelta(context.Background(), sources)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunContext(context.Background(), cfg, sources)
		if err != nil {
			t.Fatal(err)
		}
		if got.Delta != nil {
			t.Fatalf("round %d: session run has a Delta: %+v", round, got.Delta)
		}
		gj, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		wj, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if gm, wm := normalizeJSON(t, gj), normalizeJSON(t, wj); !reflect.DeepEqual(gm, wm) {
			t.Fatalf("round %d: reports differ\n got: %s\nwant: %s", round, gj, wj)
		}
	}
	if snap := sess.Snapshot(); snap == nil || snap.Runs != uint64(len(rounds)) {
		t.Fatalf("snapshot = %+v, want %d runs", snap, len(rounds))
	}
}

func TestSessionRunDeltaMatchesCold(t *testing.T) {
	checkSessionMatchesCold(t, Config{Jobs: 1}, "t.c", []string{sessProgV1, sessProgV2, sessProgV1})
}

// TestSessionRunDeltaTrailingEditHits: an edit to the trailing function
// of a retained session is a plain cold solve. The result carries no
// Delta, the report has no solver.delta block, and it equals the cold
// report once timings are removed.
func TestSessionRunDeltaTrailingEditHits(t *testing.T) {
	cfg := Config{Jobs: 1}
	sess := NewSession(cfg)
	ctx := context.Background()
	if _, err := sess.RunDelta(ctx, []Source{TextSource("t.c", sessProgV1)}); err != nil {
		t.Fatal(err)
	}
	sources := []Source{TextSource("t.c", sessProgV2)}
	res, err := sess.RunDelta(ctx, sources)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta != nil {
		t.Fatalf("trailing edit has a Delta: %+v", res.Delta)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Solver map[string]json.RawMessage `json:"solver"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Solver == nil {
		t.Fatalf("report has no solver block: %s", raw)
	}
	if d, ok := m.Solver["delta"]; ok {
		t.Fatalf("report has a solver.delta block: %s", d)
	}
	cold, err := RunContext(ctx, cfg, sources)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if gm, wm := normalizeJSON(t, raw), normalizeJSON(t, cj); !reflect.DeepEqual(gm, wm) {
		t.Fatalf("reports differ\n got: %s\nwant: %s", raw, cj)
	}
}

// TestSessionRunDeltaFrontEndError: a parse failure in the middle of a
// session changes nothing about the runs around it.
func TestSessionRunDeltaFrontEndError(t *testing.T) {
	checkSessionMatchesCold(t, Config{Jobs: 1}, "t.c", []string{sessProgV1, "void broken( {", sessProgV2})
}
