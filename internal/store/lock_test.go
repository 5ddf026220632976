package store

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestLockWriteAccounting verifies the manager's write-lock wait
// instrumentation: every write-path acquisition observes the wait
// histogram, and a wait above the span threshold lands a lock-wait span on
// the attached trace.
func TestLockWriteAccounting(t *testing.T) {
	m := New(cost.Memory())
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	hist := reg.Histogram("collab_store_lock_wait_seconds", "test", nil)
	m.Instrument(Metrics{LockWait: hist, Trace: tr})

	if err := m.Put("v1", &graph.ModelArtifact{Quality: 0.5}); err != nil {
		t.Fatal(err)
	}
	if hist.Count() != 1 {
		t.Fatalf("uncontended Put observed %d waits, want 1", hist.Count())
	}
	if tr.Len() != 0 {
		t.Fatal("uncontended acquisition emitted a trace span below the threshold")
	}

	// Hold the write lock so a concurrent Put queues past the threshold.
	m.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = m.Put("v2", &graph.ModelArtifact{Quality: 0.7})
	}()
	time.Sleep(5 * time.Millisecond)
	m.mu.Unlock()
	<-done

	if hist.Count() != 2 {
		t.Fatalf("contended Put did not observe the wait histogram: count %d", hist.Count())
	}
	if hist.Sum() < 0.001 {
		t.Fatalf("wait sum = %v s, want >= 1ms (lock was held 5ms)", hist.Sum())
	}
	var found bool
	for _, ev := range tr.Events() {
		if ev.Name == "lock-wait:store" && ev.Cat == "lock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lock-wait:store span after a 5ms wait; events: %+v", tr.Events())
	}
}
