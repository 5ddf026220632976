package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023} {
		for _, grain := range []int{1, 3, 64, 5000} {
			hits := make([]int32, n)
			For(n, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestForMatchesSequential(t *testing.T) {
	const n = 10000
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	got := make([]float64, n)
	For(n, 128, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i] = float64(i) * 1.5
		}
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	if got := SetWorkers(0); got != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", got)
	}
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", Workers())
	}
}

func TestNestedForNoDeadlock(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var total atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(16, 2, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 8*16 {
		t.Fatalf("nested For ran %d units, want %d", total.Load(), 8*16)
	}
}

// TestNestedAccounting is the nesting contract as the counts see it: nested
// For must not deadlock, each invocation is exactly one call and each
// chunk exactly one unit of work whether it ran on a helper or inline, and
// every helper slot is returned.
func TestNestedAccounting(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	before := ReadCounts()
	var units atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(16, 2, func(l, h int) {
				units.Add(int64(h - l))
			})
		}
	})
	if units.Load() != 8*16 {
		t.Fatalf("nested work ran %d units, want %d", units.Load(), 8*16)
	}
	after := ReadCounts()
	// Outer: one call of 8 chunks. Inner: 8 calls of 8 chunks each.
	if calls, chunks := after.Calls-before.Calls, after.Chunks-before.Chunks; calls != 9 || chunks != 8+8*8 {
		t.Fatalf("nested For counted %d calls of %d chunks, want 9 of %d", calls, chunks, 8+8*8)
	}
	if got := live.Load(); got != 0 {
		t.Fatalf("live helpers after quiescence = %d, want 0", got)
	}
}

// poolBody is the loop the allocation and width tests run over 1024 indices.
func poolBody(lo, hi int) {
	s := 0
	for i := lo; i < hi; i++ {
		s += i
	}
	_ = s
}

// TestPoolAtWidthOneAllocatesAsTheBody: at width 1 the pool is the body run
// inline — no chunk counter, closure or wait group.
func TestPoolAtWidthOneAllocatesAsTheBody(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	body := testing.AllocsPerRun(100, func() { poolBody(0, 1024) })
	through := testing.AllocsPerRun(100, func() { For(1024, 64, poolBody) })
	if through != body {
		t.Errorf("For costs %.0f allocations at width 1, the body alone %.0f", through, body)
	}
}

// TestForSpawnsHelpersAtWidth replaces a speed-up ratio between two timings
// with the count that causes it: at width N a call with at least N chunks
// runs on the caller plus N-1 helpers, and at width 1 on the caller alone.
func TestForSpawnsHelpersAtWidth(t *testing.T) {
	var chunks [2]int64
	for i, width := range []int{1, 4} {
		prev := SetWorkers(width)
		before := ReadCounts()
		For(1024, 64, poolBody)
		after := ReadCounts()
		SetWorkers(prev)
		if got := after.Helpers - before.Helpers; got != int64(width-1) {
			t.Errorf("width %d: one For over 16 chunks spawned %d helpers, want %d", width, got, width-1)
		}
		if got := after.Denied - before.Denied; got != 0 {
			t.Errorf("width %d: %d helper slots denied on an idle pool", width, got)
		}
		chunks[i] = after.Chunks - before.Chunks
	}
	if chunks[0] != 16 || chunks[1] != 16 {
		t.Errorf("one For over 1024 indices at grain 64 counted %d chunks at width 1 and %d at width 4, want 16", chunks[0], chunks[1])
	}
}
