package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceFile mirrors the Chrome trace-event JSON shape for decoding in
// tests.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func decodeTrace(t *testing.T, data []byte) traceFile {
	t.Helper()
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	return f
}

func TestTracerNestingAndExport(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0), time.Microsecond)
	tr := NewTracer(clock)

	root := tr.Start("driver", "driver.run", String("mode", "monomorphic"))
	child := tr.Start("driver", "driver.parse", Int("files", 2))
	child.End()
	root.SetAttr(Attr{"ok", true})
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, buf.Bytes())
	if len(f.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(f.TraceEvents))
	}
	// Sorted by start time: root first.
	if f.TraceEvents[0].Name != "driver.run" || f.TraceEvents[1].Name != "driver.parse" {
		t.Fatalf("event order = %s, %s", f.TraceEvents[0].Name, f.TraceEvents[1].Name)
	}
	root0 := f.TraceEvents[0]
	par := f.TraceEvents[1]
	if root0.Ph != "X" || root0.Cat != "driver" {
		t.Fatalf("root event = %+v", root0)
	}
	// The child must nest inside the parent's [ts, ts+dur] window.
	if par.TS < root0.TS || par.TS+par.Dur > root0.TS+root0.Dur {
		t.Fatalf("child [%v,%v] not nested in root [%v,%v]",
			par.TS, par.TS+par.Dur, root0.TS, root0.TS+root0.Dur)
	}
	if root0.Args["mode"] != "monomorphic" || root0.Args["ok"] != true {
		t.Fatalf("root args = %v", root0.Args)
	}
	if par.Args["files"] != float64(2) {
		t.Fatalf("child args = %v", par.Args)
	}
}

func TestTracerDeterministicWithFakeClock(t *testing.T) {
	run := func() []byte {
		clock := NewFakeClock(time.Unix(100, 0), 3*time.Microsecond)
		tr := NewTracer(clock)
		a := tr.Start("x", "a")
		b := tr.Start("x", "b", Int("n", 7))
		b.End()
		a.End()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical call sequences produced different trace bytes")
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "a")
	sp.SetAttr(Int("n", 1))
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, buf.Bytes())
	if len(f.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events", len(f.TraceEvents))
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context has a tracer")
	}
	if sp := FromContext(ctx).Start("x", "a"); sp != nil {
		t.Fatal("Start on an empty context's tracer returned a live span")
	}
	tr := NewTracer(NewFakeClock(time.Unix(0, 0), time.Microsecond))
	ctx = WithTracer(ctx, tr)
	if FromContext(ctx) != tr {
		t.Fatal("tracer did not round-trip through context")
	}
	sp := FromContext(ctx).Start("x", "a")
	if sp == nil {
		t.Fatal("Start returned nil with a tracer attached")
	}
	sp.End()
}

func TestOpenSpansFlushedAtExport(t *testing.T) {
	tr := NewTracer(NewFakeClock(time.Unix(0, 0), time.Microsecond))
	tr.Start("x", "open") // never ended
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, buf.Bytes())
	if len(f.TraceEvents) != 1 || f.TraceEvents[0].Dur < 0 {
		t.Fatalf("open span not flushed: %+v", f.TraceEvents)
	}
}

// TestQuoteJSONEscapes: names and attributes round-trip through the
// export, among them HTML-sensitive bytes, a control character, a line
// separator and an invalid UTF-8 byte, which decodes as U+FFFD.
func TestQuoteJSONEscapes(t *testing.T) {
	const odd = "a<b&c\bd\u2028e\xfff"
	tr := NewTracer(NewFakeClock(time.Unix(0, 0), time.Microsecond))
	tr.Start("c", `quote " back \ newline`+"\n", String("k", "v\twith\ttabs"), String("odd", odd)).End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, buf.Bytes())
	if want := `quote " back \ newline` + "\n"; f.TraceEvents[0].Name != want {
		t.Fatalf("name round-trip = %q, want %q", f.TraceEvents[0].Name, want)
	}
	if !strings.Contains(buf.String(), `\t`) {
		t.Fatalf("tabs not escaped: %s", buf.String())
	}
	if got, want := f.TraceEvents[0].Args["odd"], strings.ToValidUTF8(odd, "\ufffd"); got != want {
		t.Errorf("attribute round-trip = %q, want %q\n%s", got, want, buf.Bytes())
	}
}
