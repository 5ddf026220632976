package core

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLockSectionAccounting verifies the server-mutex instrumentation:
// a request queued behind a held lock lands one observation in the
// section's wait and hold histograms, emits a lock-wait trace span tagged
// with its request ID, and reports the wait on its request record.
func TestLockSectionAccounting(t *testing.T) {
	tr := obs.NewTrace()
	srv := newTestServer(WithTracing(tr))
	w, _ := buildWorkload(syntheticTrain(50, 1), 7)

	// Hold the server mutex so the optimize request must queue past
	// lockWaitSpanThreshold: the hold is counted from the moment the other
	// goroutine says it is about to call Optimize, and lasts 200 thresholds,
	// so only a goroutine that stalls that long between the signal and the
	// lock (nothing lies between them) could wait less than one.
	srv.mu.Lock()
	req := &obs.Request{RequestID: "req-lock"}
	calling, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(calling)
		srv.Optimize(w, req)
	}()
	<-calling
	time.Sleep(200 * lockWaitSpanThreshold)
	srv.mu.Unlock()
	<-done

	m := srv.metrics
	if n := m.lockWait["optimize"].Count(); n != 1 {
		t.Fatalf("optimize lock-wait observations = %d, want 1", n)
	}
	if s := m.lockWait["optimize"].Sum(); s < lockWaitSpanThreshold.Seconds() {
		t.Fatalf("optimize lock-wait sum = %v s, want >= %v", s, lockWaitSpanThreshold)
	}
	if n := m.lockHold["optimize"].Count(); n != 1 {
		t.Fatalf("optimize lock-hold observations = %d, want 1", n)
	}
	if srv.LockWaitSeconds() < lockWaitSpanThreshold.Seconds() || srv.LockHoldSeconds() <= 0 {
		t.Fatalf("scalar lock totals = wait %v / hold %v, want both positive",
			srv.LockWaitSeconds(), srv.LockHoldSeconds())
	}

	var span *obs.TraceEvent
	for _, ev := range tr.Events() {
		if ev.Name == "lock-wait:optimize" {
			span = &ev
			break
		}
	}
	if span == nil {
		t.Fatal("no lock-wait:optimize span recorded despite a wait past the threshold")
	}
	if span.Cat != "lock" || span.Args[obs.RequestIDKey] != "req-lock" {
		t.Fatalf("lock-wait span malformed: %+v", span)
	}

	// The wait was written into the record the request carried, which is
	// what the edge emits to the flight log and the client table.
	if req.LockWaitNanos < lockWaitSpanThreshold.Nanoseconds() {
		t.Fatalf("request record lock wait = %d ns, want >= %v", req.LockWaitNanos, lockWaitSpanThreshold)
	}
}

// TestLockSectionsCoverHandlers pins the section vocabulary: each server
// entry point accounts against its declared section even uncontended.
func TestLockSectionsCoverHandlers(t *testing.T) {
	srv := newTestServer()
	w, _ := buildWorkload(syntheticTrain(50, 2), 3)
	req := &obs.Request{RequestID: "r1"}
	srv.Optimize(w, req)
	if _, err := Execute(w, nil, srv); err != nil {
		t.Fatal(err)
	}
	srv.Update(w, req, 0)
	m := srv.metrics
	if m.lockWait["optimize"].Count() != 1 {
		t.Errorf("optimize section saw %d waits, want 1", m.lockWait["optimize"].Count())
	}
	if m.lockWait["update"].Count() != 1 {
		t.Errorf("update section saw %d waits, want 1", m.lockWait["update"].Count())
	}
	for _, sec := range lockSections {
		if m.lockWait[sec] == nil || m.lockHold[sec] == nil {
			t.Errorf("section %q missing histograms", sec)
		}
	}
	// Uncontended acquisitions must not emit trace spans (no recorder is
	// attached here, but the threshold also guards traced servers — the
	// histograms still saw every acquisition above).
	if m.lockWait["optimize"].Sum() > lockWaitSpanThreshold.Seconds() {
		t.Logf("note: uncontended optimize wait %v s exceeded the span threshold",
			m.lockWait["optimize"].Sum())
	}
}
