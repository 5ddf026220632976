package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestClientTableAccumulates(t *testing.T) {
	ct := NewClientTable(8)
	ct.Observe(&Request{Client: "alice", Status: 200, WallNanos: 100, BytesIn: 10, BytesOut: 20, LockWaitNanos: 5, PlanNanos: 7})
	ct.Observe(&Request{Client: "alice", Status: 500, WallNanos: 50})
	ct.Observe(&Request{Client: "bob", Status: 200, WallNanos: 30})
	rows := ct.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(rows))
	}
	a := rows[0]
	if a.Client != "alice" || a.Requests != 2 || a.Errors != 1 || a.WallNS != 150 ||
		a.BytesIn != 10 || a.BytesOut != 20 || a.LockWaitNS != 5 || a.PlanNS != 7 {
		t.Fatalf("alice row = %+v", a)
	}
	if rows[1].Client != "bob" || rows[1].Requests != 1 {
		t.Fatalf("bob row = %+v", rows[1])
	}
}

func TestClientTableBounded(t *testing.T) {
	ct := NewClientTable(3)
	for i := 0; i < 10; i++ {
		ct.Observe(&Request{Client: fmt.Sprintf("client-%d", i), Status: 200, WallNanos: 1})
	}
	if ct.Len() != 4 { // 3 tracked + overflow bucket
		t.Fatalf("table has %d rows, want 4 (cap 3 + overflow)", ct.Len())
	}
	var overflow *ClientStats
	for _, r := range ct.Snapshot() {
		if r.Client == OverflowClientID {
			row := r
			overflow = &row
		}
	}
	if overflow == nil || overflow.Requests != 7 {
		t.Fatalf("overflow bucket = %+v, want 7 requests", overflow)
	}
}

func TestClientTableNilAndEmpty(t *testing.T) {
	var ct *ClientTable
	ct.Observe(&Request{Client: "x"}) // must not panic
	if ct.Len() != 0 || ct.Snapshot() != nil {
		t.Fatal("nil table must be inert")
	}
	ct = NewClientTable(0)
	if ct.Cap() != DefaultClientCap {
		t.Fatalf("default cap = %d, want %d", ct.Cap(), DefaultClientCap)
	}
	ct.Observe(&Request{Status: 200})
	if rows := ct.Snapshot(); len(rows) != 1 || rows[0].Client != "unknown" {
		t.Fatalf("empty client label rows = %+v, want one 'unknown' row", rows)
	}
}

func TestClientTableConcurrent(t *testing.T) {
	ct := NewClientTable(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ct.Observe(&Request{Client: fmt.Sprintf("client-%d", g%6), Status: 200, WallNanos: 1})
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, r := range ct.Snapshot() {
		total += r.Requests
	}
	if total != 800 {
		t.Fatalf("observed %d requests total, want 800", total)
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

// TestClientsGolden pins the /v1/clients JSON contract byte-for-byte.
func TestClientsGolden(t *testing.T) {
	ct := NewClientTable(8)
	ct.Observe(&Request{Client: "alice", Status: 200, WallNanos: 1200000, BytesIn: 512, BytesOut: 2048, LockWaitNanos: 40000, PlanNanos: 300000})
	ct.Observe(&Request{Client: "alice", Status: 200, WallNanos: 800000, BytesIn: 256, BytesOut: 1024})
	ct.Observe(&Request{Client: "10.0.0.7", Status: 404, WallNanos: 90000, BytesOut: 19})
	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
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
	ct.WriteText(&text)
	if !strings.Contains(text.String(), "alice") || !strings.Contains(text.String(), "LOCKWAIT_NS") {
		t.Fatalf("text rendering missing expected content:\n%s", text.String())
	}
}
