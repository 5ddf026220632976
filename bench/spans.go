package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one Client.Run
// share the run id (the step index); parent is the index of the span that
// caused this one, or -1.
type span struct {
	name   string
	client int
	run    int
	parent int
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	// bytes moved and the HTTP status, for route spans.
	reqBytes, respBytes int64
	status              int
	tier                string
	// artifact is the vertex ID a fetch span asked for.
	artifact string
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how untraced runs keep the span path off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; artifact is the vertex ID a
// fetch asks for, "" elsewhere.
func (r *recorder) begin(name, artifact string, client, run, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, artifact: artifact, client: client, run: run, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id; fill may set the span's byte counts and status.
func (r *recorder) end(id int, fill func(*span)) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans[id].end >= 0 {
		return
	}
	r.spans[id].end = now
	if fill != nil {
		fill(&r.spans[id])
	}
}

// snapshot returns a copy of the spans recorded so far; a span still open
// has end < 0.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]: overlapping children (parallel fetches) are counted once.
func covered(lo, hi time.Duration, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := c.start, c.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curEnd time.Duration
	curEnd = lo
	for _, x := range iv {
		if x[0] > curEnd {
			curEnd = x[0]
		}
		if x[1] > curEnd {
			total += x[1] - curEnd
			curEnd = x[1]
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent.start, parent.end, children)
}

// writeChromeTrace writes spans in the Chrome trace-event format ("X"
// complete events, microseconds), one thread per client.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"run": s.run, "span": i, "parent": s.parent}
		if s.status != 0 {
			args["status"] = s.status
			args["req_bytes"] = s.reqBytes
			args["resp_bytes"] = s.respBytes
		}
		if s.tier != "" {
			args["tier"] = s.tier
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.client + 1, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
