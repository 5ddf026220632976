package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// emit retains a finished request the way core.Server.ObserveRequest does.
func emit(ring *Ring[Request], req Request) {
	ring.AddSeq(func(seq int64) Request {
		req.Seq = seq
		return req
	})
}

func TestRequestIDNilSafe(t *testing.T) {
	var req *Request
	if req.ID() != "" {
		t.Fatal("a nil record has no ID")
	}
	if (&Request{RequestID: "abc"}).ID() != "abc" {
		t.Fatal("ID() should return the record's request ID")
	}
}

// TestFlightReportDisabledRing: a nil ring (the surface switched off)
// snapshots to nothing, and the report still renders an empty list.
func TestFlightReportDisabledRing(t *testing.T) {
	var ring *Ring[Request]
	emit(ring, Request{Route: "/v1/optimize"})
	var buf bytes.Buffer
	if err := NewFlightReport(ring.Snapshot(), RequestFilter{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"requests": []`) {
		t.Fatalf("empty report should render an empty array, got:\n%s", buf.String())
	}
}

// TestFlightReportFilterDeterminism pins filter semantics: route match,
// min-latency cutoff, and limit keeping the most recent matches while
// preserving oldest-first order.
func TestFlightReportFilterDeterminism(t *testing.T) {
	ring := NewRing[Request](16)
	for i := 1; i <= 8; i++ {
		route := "/v1/optimize"
		if i%2 == 0 {
			route = "/v1/update"
		}
		emit(ring, Request{
			RequestID: fmt.Sprintf("r%d", i),
			Route:     route,
			WallNanos: int64(i) * int64(time.Millisecond),
		})
	}
	filter := RequestFilter{Route: "/v1/optimize", MinWall: 3 * time.Millisecond, Limit: 2}
	got := NewFlightReport(ring.Snapshot(), filter)
	if got.Count != 2 || len(got.Requests) != 2 {
		t.Fatalf("filtered report has %d entries, want 2", len(got.Requests))
	}
	if got.Requests[0].RequestID != "r5" || got.Requests[1].RequestID != "r7" {
		t.Errorf("filtered = [%s %s], want [r5 r7]", got.Requests[0].RequestID, got.Requests[1].RequestID)
	}
	if got.Requests[0].Seq != 5 || got.Requests[1].Seq != 7 {
		t.Errorf("sequence numbers %d,%d; want 5,7", got.Requests[0].Seq, got.Requests[1].Seq)
	}
	// Same filter, same state → identical result (determinism).
	again := NewFlightReport(ring.Snapshot(), filter)
	for i := range got.Requests {
		if got.Requests[i] != again.Requests[i] {
			t.Fatalf("report not deterministic at %d: %+v vs %+v", i, got.Requests[i], again.Requests[i])
		}
	}
}

// TestFlightReportJSONGolden pins the byte-exact /v1/requests JSON for a
// fixed ring state. Regenerate with -update when the contract changes
// deliberately.
func TestFlightReportJSONGolden(t *testing.T) {
	ring := NewRing[Request](8)
	emit(ring, Request{
		RequestID:     "aaaa000011112222",
		Client:        "analyst-1", // attribution label: never rendered
		Method:        "POST",
		Route:         "/v1/optimize",
		Status:        200,
		StartUnixNano: 1700000000000000000,
		WallNanos:     2500000,
		BytesIn:       512,
		BytesOut:      128,
		Vertices:      9, Reused: 4, Computes: 5, Warmstarts: 1, PlanNanos: 1500000,
	})
	emit(ring, Request{
		RequestID:     "bbbb000011112222",
		Method:        "GET",
		Route:         "/v1/stats",
		Status:        200,
		StartUnixNano: 1700000000100000000,
		WallNanos:     90000,
		BytesOut:      640,
	})
	rep := NewFlightReport(ring.Snapshot(), RequestFilter{})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "flight_requests.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("flight JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The text rendering carries the optimizer facts only where there are any.
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if len(lines) != 3 || lines[0] != "2 request(s)" ||
		!strings.Contains(lines[1], "vertices=9 reuse=4 computes=5 warmstarts=1 plan=1.50ms") ||
		strings.Contains(lines[2], "vertices=") {
		t.Errorf("text rendering:\n%s", text.String())
	}
}

// TestFlightTextShowsLockWaitAndMaterialization: the text view shows the
// queue wait and the materialization time of any record that has them — an
// upload, which carries no optimizer facts, included — and nothing of either
// on a record without them.
func TestFlightTextShowsLockWaitAndMaterialization(t *testing.T) {
	rep := FlightReport{Count: 3, Requests: []Request{
		{Seq: 1, Route: "/v1/update", Vertices: 4, LockWaitNanos: 2500000, MatNanos: 750000},
		{Seq: 2, Route: "/v1/artifact", LockWaitNanos: 1250000},
		{Seq: 3, Route: "/v1/stats"},
	}}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if len(lines) != 4 ||
		!strings.Contains(lines[1], "plan=0.00ms lock=2.50ms mat=0.75ms") ||
		!strings.Contains(lines[2], "lock=1.25ms") || strings.Contains(lines[2], "mat=") ||
		strings.Contains(lines[3], "lock=") || strings.Contains(lines[3], "mat=") {
		t.Errorf("text rendering:\n%s", text.String())
	}
}
