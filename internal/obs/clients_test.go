package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestClientReportSums: the view sums each client's records, counts the
// ones answered >= 400 as errors, files an unlabelled record under
// "unknown", and sorts its rows by client.
func TestClientReportSums(t *testing.T) {
	rep := NewClientReport([]Request{
		{Client: "bob", Status: 200, WallNanos: 30},
		{Client: "alice", Status: 200, WallNanos: 100, BytesIn: 10, BytesOut: 20, LockWaitNanos: 5, PlanNanos: 7},
		{Client: "alice", Status: 500, WallNanos: 50},
		{Status: 200},
	})
	if rep.Count != 3 || len(rep.Clients) != 3 {
		t.Fatalf("report = %+v, want 3 rows", rep)
	}
	a := rep.Clients[0]
	if a != (ClientStats{Client: "alice", Requests: 2, Errors: 1, WallNS: 150, BytesIn: 10, BytesOut: 20, LockWaitNS: 5, PlanNS: 7}) {
		t.Fatalf("alice row = %+v", a)
	}
	if rep.Clients[1].Client != "bob" || rep.Clients[1].Requests != 1 || rep.Clients[2].Client != "unknown" {
		t.Fatalf("rows = %+v", rep.Clients)
	}
	var empty bytes.Buffer
	if err := NewClientReport(nil).WriteJSON(&empty); err != nil || !strings.Contains(empty.String(), `"clients": []`) {
		t.Fatalf("empty report renders %q (%v), want an empty list", empty.String(), err)
	}
}

func TestSanitizeID(t *testing.T) {
	for in, want := range map[string]string{
		"  alice  ":              "alice",
		"":                       "",
		"   ":                    "",
		"a b":                    "a_b",
		"tab\there":              "tab_here",
		"req\n\x00id":            "req__id",
		"ünïcode":                "_n_code",
		strings.Repeat("x", 200): strings.Repeat("x", maxIDLen),
	} {
		if got := SanitizeID(in); got != want {
			t.Fatalf("SanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestClientsGolden pins the /v1/clients JSON contract byte-for-byte: the
// view of three records taken through a flight ring.
func TestClientsGolden(t *testing.T) {
	ring := NewRing[Request](8)
	ring.Add(Request{Client: "alice", Status: 200, WallNanos: 1200000, BytesIn: 512, BytesOut: 2048, LockWaitNanos: 40000, PlanNanos: 300000})
	ring.Add(Request{Client: "alice", Status: 200, WallNanos: 800000, BytesIn: 256, BytesOut: 1024})
	ring.Add(Request{Client: "10.0.0.7", Status: 404, WallNanos: 90000, BytesOut: 19})
	rep := NewClientReport(ring.Snapshot())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "clients.json")
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
		t.Errorf("clients JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "alice") || !strings.Contains(text.String(), "LOCKWAIT_NS") {
		t.Fatalf("text rendering missing expected content:\n%s", text.String())
	}
}
