package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestRingNilSafe(t *testing.T) {
	var r *Ring[int]
	r.Add(1)
	r.AddSeq(func(seq int64) int { return int(seq) })
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring should keep nothing and report empty")
	}
}

// TestRingKeepsNewest pins the eviction rule every surface relies on: a
// full ring overwrites its oldest element, snapshots stay oldest-first, and
// sequence numbers count every Add.
func TestRingKeepsNewest(t *testing.T) {
	r := NewRing[string](4)
	for i := 1; i <= 10; i++ {
		r.AddSeq(func(seq int64) string { return fmt.Sprintf("e%02d/%d", i, seq) })
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	got := r.Snapshot()
	for i, want := range []string{"e07/7", "e08/8", "e09/9", "e10/10"} {
		if got[i] != want {
			t.Fatalf("snapshot = %v, want the newest four oldest-first", got)
		}
	}
	// The snapshot is a copy: later adds do not show through it.
	r.Add("e11")
	if got[0] != "e07/7" || r.Snapshot()[3] != "e11" {
		t.Fatal("snapshot aliases the ring")
	}
}

func TestRingUnbounded(t *testing.T) {
	r := NewRing[int](0)
	for i := 0; i < 1000; i++ {
		r.Add(i)
	}
	if r.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", r.Len())
	}
	if s := r.Snapshot(); s[0] != 0 || s[999] != 999 {
		t.Fatal("unbounded ring lost append order")
	}
}

// TestRingConcurrent hammers Add/AddSeq/Snapshot from many goroutines; the
// -race run is the assertion, plus strictly increasing sequence numbers.
func TestRingConcurrent(t *testing.T) {
	r := NewRing[int64](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.AddSeq(func(seq int64) int64 { return seq })
				_ = r.Snapshot()
				_ = r.Len()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 32 || snap[31] != 8*500 {
		t.Fatalf("len %d, newest seq %d after 4000 adds into 32 slots", len(snap), snap[len(snap)-1])
	}
	for i := 1; i < len(snap); i++ {
		if snap[i] != snap[i-1]+1 {
			t.Fatalf("snapshot seq not consecutive: %d then %d", snap[i-1], snap[i])
		}
	}
}
