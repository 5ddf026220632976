package obs

import (
	"encoding/json"
	"io"
	"time"
)

// TraceEvent is one Chrome trace_event record. Field names and JSON keys
// follow the Trace Event Format so the export loads in chrome://tracing
// and Perfetto unmodified: ph "X" is a complete event (ts + dur), ph "i"
// an instant event.
type TraceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	// TS and Dur are microseconds relative to the trace epoch.
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of a trace file, used by both the
// exporter and tests that round-trip it.
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// Trace records timeline events for one execution. All methods are safe for
// concurrent use and nil-safe: a nil *Trace records nothing, which is the
// disabled fast path — callers still guard argument construction behind a
// nil check to keep hot paths allocation-free.
type Trace struct {
	epoch  time.Time
	events *Ring[TraceEvent]
}

// NewTrace returns an unbounded recorder whose epoch is now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now(), events: NewRing[TraceEvent](0)}
}

func (t *Trace) sinceEpochMicros(ts time.Time) float64 {
	return float64(ts.Sub(t.epoch).Nanoseconds()) / 1e3
}

// Span records a complete ("X") event covering [start, start+dur) on the
// given thread lane.
func (t *Trace) Span(name, cat string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.events.Add(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: t.sinceEpochMicros(start), Dur: float64(dur.Nanoseconds()) / 1e3,
		PID: 1, TID: tid, Args: args,
	})
}

// Instant records a point-in-time ("i") event, thread-scoped.
func (t *Trace) Instant(name, cat string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.events.Add(TraceEvent{
		Name: name, Cat: cat, Ph: "i", S: "t",
		TS:  t.sinceEpochMicros(time.Now()),
		PID: 1, TID: tid, Args: args,
	})
}

// ring returns the event buffer, nil for a nil trace (Ring is nil-safe).
func (t *Trace) ring() *Ring[TraceEvent] {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of buffered events.
func (t *Trace) Len() int { return t.ring().Len() }

// Events returns a copy of the buffered events, oldest first.
func (t *Trace) Events() []TraceEvent { return t.ring().Snapshot() }

// WriteChrome exports the trace as a Chrome trace_event JSON object.
// A nil trace writes an empty-but-valid trace.
func (t *Trace) WriteChrome(w io.Writer) error {
	ct := ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	if t != nil {
		ct.TraceEvents = t.Events()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&ct)
}
