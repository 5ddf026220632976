package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func timeNowForTest() time.Time { return time.Now() }

// TestChromeTraceRoundTrip asserts the export decodes as trace_event JSON
// with the recorded structure intact — the format chrome://tracing and
// Perfetto load.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	start := time.Now()
	tr.Span("fetch v1", "fetch", 2, start, 3*time.Millisecond,
		map[string]any{"vertex": "v1", "bytes": float64(1024)})
	tr.Span("compute v2", "compute", 0, start.Add(time.Millisecond), 5*time.Millisecond, nil)
	tr.Instant("sched v2", "sched", 0, nil)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(got.TraceEvents))
	}
	ev := got.TraceEvents[0]
	if ev.Name != "fetch v1" || ev.Cat != "fetch" || ev.Ph != "X" || ev.TID != 2 {
		t.Errorf("span fields lost: %+v", ev)
	}
	if ev.Dur < 2900 || ev.Dur > 3100 {
		t.Errorf("span duration %v µs, want ~3000", ev.Dur)
	}
	if ev.Args["vertex"] != "v1" || ev.Args["bytes"] != float64(1024) {
		t.Errorf("span args lost: %v", ev.Args)
	}
	if inst := got.TraceEvents[2]; inst.Ph != "i" || inst.S != "t" {
		t.Errorf("instant event fields lost: %+v", inst)
	}
	// Events on one timeline: the second span starts after the first.
	if got.TraceEvents[1].TS <= got.TraceEvents[0].TS {
		t.Error("timestamps not monotone with recorded starts")
	}
}

func TestNilTraceExportsValidJSON(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceEvents == nil || len(got.TraceEvents) != 0 {
		t.Fatal("nil trace should export an empty traceEvents array")
	}
}
