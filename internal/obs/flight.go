package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Request is the one record of a request. The edge that receives the
// request creates it (the HTTP middleware, or core.Client.Run in process),
// it travels as an argument through the server's optimize, update, fetch
// and upload methods, which fill the optimizer facts in place, and the edge
// emits it once when the request finishes: the flight log (/v1/requests),
// the per-client table (/v1/clients) and the access log are folds over that
// one emission. Field order is the JSON contract — the /v1/requests
// rendering is byte-stable for a fixed ring state, and a golden test pins
// it.
type Request struct {
	Seq       int64  `json:"seq"`
	RequestID string `json:"request_id"`
	// Client is the caller's attribution label (X-Collab-Client, else the
	// remote address); it keys the per-client table and stays off the wire.
	Client string `json:"-"`
	Method string `json:"method"`
	Route  string `json:"route"`
	Status int    `json:"status"`
	// StartUnixNano is the arrival wall-clock time; WallNanos the
	// end-to-end handling time (integer nanoseconds keep the JSON exact).
	StartUnixNano int64 `json:"start_unix_nano"`
	WallNanos     int64 `json:"wall_ns"`
	BytesIn       int64 `json:"bytes_in"`
	BytesOut      int64 `json:"bytes_out"`
	// Optimizer facts, written by core.Server; all zero for plain
	// transport requests. Vertices counts the nodes the server received,
	// Frontier those of them that came without their parents.
	Vertices   int   `json:"vertices,omitempty"`
	Frontier   int   `json:"frontier,omitempty"`
	Reused     int   `json:"reuse,omitempty"`
	Computes   int   `json:"computes,omitempty"`
	Warmstarts int   `json:"warmstarts,omitempty"`
	PlanNanos  int64 `json:"plan_ns,omitempty"`
	// LockWaitNanos is time the request spent queued on the server mutex
	// before its section (optimize/update/materialize) could run.
	LockWaitNanos int64 `json:"lock_wait_ns,omitempty"`
	// MatNanos is time the updater's materialization algorithm ran for
	// this request (an update's share of collab_materialize_seconds).
	MatNanos int64 `json:"mat_ns,omitempty"`
}

// ID returns the request's correlation ID; a nil record — a caller that
// tagged nothing — has none.
func (r *Request) ID() string {
	if r == nil {
		return ""
	}
	return r.RequestID
}

// DefaultFlightCap is how many finished requests a server's flight ring
// retains unless told otherwise.
const DefaultFlightCap = 256

// RequestFilter selects records from the flight log. The zero value
// selects everything.
type RequestFilter struct {
	// Route keeps only records with this exact route ("" keeps all).
	Route string
	// MinWall keeps only requests at least this slow.
	MinWall time.Duration
	// Limit keeps only the most recent N matches (0 keeps all). Output
	// order stays oldest-first regardless.
	Limit int
}

// FlightReport is the /v1/requests view: the retained requests matching a
// filter, oldest first.
type FlightReport struct {
	Count    int       `json:"count"`
	Requests []Request `json:"requests"`
}

// NewFlightReport filters a flight-ring snapshot (oldest first) in place.
func NewFlightReport(reqs []Request, filter RequestFilter) FlightReport {
	matched := reqs[:0]
	for _, s := range reqs {
		if filter.Route != "" && s.Route != filter.Route {
			continue
		}
		if filter.MinWall > 0 && s.WallNanos < filter.MinWall.Nanoseconds() {
			continue
		}
		matched = append(matched, s)
	}
	if filter.Limit > 0 && len(matched) > filter.Limit {
		matched = matched[len(matched)-filter.Limit:]
	}
	if matched == nil {
		matched = []Request{}
	}
	return FlightReport{Count: len(matched), Requests: matched}
}

// WriteJSON renders the report as byte-stable JSON.
func (r FlightReport) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }

// WriteText renders one line per request, with the optimizer facts, the
// lock wait and the materialization time appended where the request carried
// any.
func (r FlightReport) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d request(s)\n", r.Count)
	for _, s := range r.Requests {
		fmt.Fprintf(&b, "#%-5d %s %-6s %-15s %3d %8.2fms in=%-6d out=%-6d",
			s.Seq, s.RequestID, s.Method, s.Route, s.Status,
			float64(s.WallNanos)/float64(time.Millisecond), s.BytesIn, s.BytesOut)
		if s.Vertices > 0 {
			fmt.Fprintf(&b, "  vertices=%d", s.Vertices)
			if s.Frontier > 0 {
				fmt.Fprintf(&b, " frontier=%d", s.Frontier)
			}
			fmt.Fprintf(&b, " reuse=%d computes=%d warmstarts=%d plan=%.2fms",
				s.Reused, s.Computes, s.Warmstarts, float64(s.PlanNanos)/float64(time.Millisecond))
		}
		if s.LockWaitNanos > 0 {
			fmt.Fprintf(&b, " lock=%.2fms", float64(s.LockWaitNanos)/float64(time.Millisecond))
		}
		if s.MatNanos > 0 {
			fmt.Fprintf(&b, " mat=%.2fms", float64(s.MatNanos)/float64(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders v as indented JSON ending in a newline — the one
// rendering every report shares, byte-stable for a value whose field and
// slice order are fixed.
func WriteJSON(w io.Writer, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
