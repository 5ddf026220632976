package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file is the critical-path analyzer: given the recorded trace of a
// request (or a whole execution), it computes the chain of spans that
// gated end-to-end latency and attributes wall time to span categories
// (sched/fetch/compute/lock/server). The output is deterministic for a
// fixed span set — integer nanoseconds, stable sort keys — so both the
// JSON and text renderings are byte-stable and golden-testable.

// critSpan is one complete ("X") trace span normalized to integer
// nanoseconds on the trace epoch.
type critSpan struct {
	name  string
	cat   string
	tid   int
	start int64
	end   int64
}

// CritPathVertex is one span on the critical path. StartNS is relative to
// the earliest span in the analyzed set; PathNS is the span's exclusive
// contribution to the path (overlap with its predecessor is attributed to
// the predecessor, so vertex contributions sum to PathNS of the report).
type CritPathVertex struct {
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	TID     int    `json:"tid"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	PathNS  int64  `json:"path_ns"`
}

// CritPathCategory aggregates on-path contributions per span category.
type CritPathCategory struct {
	Cat   string `json:"cat"`
	NS    int64  `json:"ns"`
	Spans int    `json:"spans"`
}

// CritPathReport is the analyzer's deterministic breakdown. WallNS spans
// the earliest start to the latest end of the analyzed set; PathNS is the
// time covered by the critical path; IdleNS = WallNS - PathNS is time no
// path span was running (scheduler gaps, external waits).
type CritPathReport struct {
	RequestID  string             `json:"request_id,omitempty"`
	Spans      int                `json:"spans"`
	WallNS     int64              `json:"wall_ns"`
	PathNS     int64              `json:"path_ns"`
	IdleNS     int64              `json:"idle_ns"`
	Categories []CritPathCategory `json:"categories"`
	Path       []CritPathVertex   `json:"path"`
	Top        []CritPathVertex   `json:"top"`
}

// DefaultCritPathTopK bounds the Top list when the caller passes topK <= 0.
const DefaultCritPathTopK = 5

// eventMatchesRequest reports whether the span's args carry the request ID.
func eventMatchesRequest(ev TraceEvent, rid string) bool {
	v, ok := ev.Args[RequestIDKey]
	if !ok {
		return false
	}
	s, ok := v.(string)
	if !ok {
		s = fmt.Sprint(v)
	}
	return s == rid
}

// AnalyzeCritPath computes the critical path through the given trace
// events. Only complete ("X") spans participate; instants are ignored.
// A non-empty requestID keeps only spans tagged with that ID (the server's
// optimize/update/lock spans); empty analyzes every span, which suits
// whole-execution client traces. topK bounds the Top list
// (DefaultCritPathTopK when <= 0).
//
// The path is built backwards from the latest-ending span: each step's
// predecessor is the span with the latest end among those that started
// strictly earlier (ties broken by the deterministic span order: start,
// end, name, tid — later wins). This is the classic last-finisher chain:
// at every moment on the path, the running span is the one whose
// completion the rest of the request was waiting on.
func AnalyzeCritPath(events []TraceEvent, requestID string, topK int) CritPathReport {
	if topK <= 0 {
		topK = DefaultCritPathTopK
	}
	spans := make([]critSpan, 0, len(events))
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if requestID != "" && !eventMatchesRequest(ev, requestID) {
			continue
		}
		start := int64(math.Round(ev.TS * 1e3))
		dur := int64(math.Round(ev.Dur * 1e3))
		if dur < 0 {
			dur = 0
		}
		cat := ev.Cat
		if cat == "" {
			cat = "other"
		}
		spans = append(spans, critSpan{name: ev.Name, cat: cat, tid: ev.TID, start: start, end: start + dur})
	}
	rep := CritPathReport{
		RequestID:  requestID,
		Spans:      len(spans),
		Categories: []CritPathCategory{},
		Path:       []CritPathVertex{},
		Top:        []CritPathVertex{},
	}
	if len(spans) == 0 {
		return rep
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.tid < b.tid
	})
	minStart, maxEnd := spans[0].start, spans[0].end
	for _, s := range spans {
		if s.end > maxEnd {
			maxEnd = s.end
		}
	}
	rep.WallNS = maxEnd - minStart

	// Terminal span: latest end, ties resolved to the latest sort position.
	cur := 0
	for i, s := range spans {
		if s.end >= spans[cur].end {
			cur = i
		}
	}
	var rev []int
	for cur >= 0 {
		rev = append(rev, cur)
		pred := -1
		for i, s := range spans {
			if s.start >= spans[cur].start {
				continue
			}
			if pred < 0 || s.end > spans[pred].end || (s.end == spans[pred].end && i > pred) {
				pred = i
			}
		}
		cur = pred
	}

	// Chronological order, then exclusive contributions: overlap with the
	// running prefix is the predecessor's time, not the successor's.
	byCat := map[string]*CritPathCategory{}
	prevEnd := int64(math.MinInt64)
	for i := len(rev) - 1; i >= 0; i-- {
		s := spans[rev[i]]
		from := s.start
		if prevEnd > from {
			from = prevEnd
		}
		contrib := s.end - from
		if contrib < 0 {
			contrib = 0
		}
		if s.end > prevEnd {
			prevEnd = s.end
		}
		rep.PathNS += contrib
		rep.Path = append(rep.Path, CritPathVertex{
			Name:    s.name,
			Cat:     s.cat,
			TID:     s.tid,
			StartNS: s.start - minStart,
			DurNS:   s.end - s.start,
			PathNS:  contrib,
		})
		c := byCat[s.cat]
		if c == nil {
			c = &CritPathCategory{Cat: s.cat}
			byCat[s.cat] = c
		}
		c.NS += contrib
		c.Spans++
	}
	rep.IdleNS = rep.WallNS - rep.PathNS

	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		rep.Categories = append(rep.Categories, *byCat[cat])
	}

	top := append([]CritPathVertex(nil), rep.Path...)
	sort.Slice(top, func(i, j int) bool {
		a, b := top[i], top[j]
		if a.PathNS != b.PathNS {
			return a.PathNS > b.PathNS
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.TID < b.TID
	})
	if len(top) > topK {
		top = top[:topK]
	}
	rep.Top = top
	return rep
}

// WriteJSON renders the report as byte-stable indented JSON.
func (r CritPathReport) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }

// WriteText renders the report as a fixed-width text breakdown. All
// figures are integer nanoseconds, so output is byte-stable.
func (r CritPathReport) WriteText(out io.Writer) error {
	w := &strings.Builder{}
	target := r.RequestID
	if target == "" {
		target = "(all spans)"
	}
	fmt.Fprintf(w, "critical path: %s\n", target)
	fmt.Fprintf(w, "spans %d  wall %d ns  path %d ns  idle %d ns\n",
		r.Spans, r.WallNS, r.PathNS, r.IdleNS)
	if len(r.Categories) > 0 {
		fmt.Fprintf(w, "\non-path by category:\n")
		for _, c := range r.Categories {
			fmt.Fprintf(w, "  %-10s %12d ns  %3d spans\n", c.Cat, c.NS, c.Spans)
		}
	}
	if len(r.Top) > 0 {
		fmt.Fprintf(w, "\ntop vertices by contribution:\n")
		for i, v := range r.Top {
			fmt.Fprintf(w, "  %2d. %-28s %-10s %12d ns  (start +%d ns, dur %d ns, tid %d)\n",
				i+1, v.Name, v.Cat, v.PathNS, v.StartNS, v.DurNS, v.TID)
		}
	}
	if len(r.Path) > 0 {
		fmt.Fprintf(w, "\npath (%d vertices):\n", len(r.Path))
		for _, v := range r.Path {
			fmt.Fprintf(w, "  +%-12d %-28s %-10s %12d ns\n", v.StartNS, v.Name, v.Cat, v.PathNS)
		}
	}
	_, err := io.WriteString(out, w.String())
	return err
}
