package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestTraceCapKeepsNewest pins the rolling-buffer contract of a capped
// (server) trace: after cap+k events the newest cap are served — so the
// spans of a request that arrived long after start-up are in the export
// — Dropped() counts the k overwritten ones, and the Chrome export reports
// them as droppedEvents.
func TestTraceCapKeepsNewest(t *testing.T) {
	const capN, k = 4, 3
	tr := NewTraceCapped(capN)
	start := time.Now()
	for i := 0; i < capN+k; i++ {
		tr.Span(fmt.Sprintf("span-%d", i), "server", 0, start, time.Millisecond,
			map[string]any{RequestIDKey: fmt.Sprintf("req-%d", i)})
	}
	if tr.Len() != capN || tr.Cap() != capN {
		t.Fatalf("capped trace holds %d of %d events, want it full", tr.Len(), tr.Cap())
	}
	if tr.Dropped() != k {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), k)
	}
	for i, ev := range tr.Events() {
		if want := fmt.Sprintf("span-%d", k+i); ev.Name != want {
			t.Fatalf("event %d = %s, want %s (newest %d, oldest first)", i, ev.Name, want, capN)
		}
		if want := fmt.Sprintf("req-%d", k+i); ev.Args[RequestIDKey] != want {
			t.Fatalf("event %d carries request %v, want %s", i, ev.Args[RequestIDKey], want)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.OtherData["droppedEvents"] != float64(k) || len(got.TraceEvents) != capN {
		t.Errorf("export has %d events, otherData %v; want %d events, droppedEvents %d",
			len(got.TraceEvents), got.OtherData, capN, k)
	}
}
