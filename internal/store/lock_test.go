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
// histogram, and a contended one observes the time it queued.
func TestLockWriteAccounting(t *testing.T) {
	m := New(cost.Memory())
	reg := obs.NewRegistry()
	hist := reg.Histogram("collab_store_lock_wait_seconds", "test", nil)
	m.Instrument(Metrics{LockWait: hist})

	if err := m.Put("v1", &graph.ModelArtifact{Quality: 0.5}); err != nil {
		t.Fatal(err)
	}
	if hist.Count() != 1 {
		t.Fatalf("uncontended Put observed %d waits, want 1", hist.Count())
	}

	// Hold the write lock so a concurrent Put queues behind it.
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
}
