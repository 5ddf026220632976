package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// forcedWait is the least queue wait TestLockSectionAccounting asserts.
const forcedWait = 100 * time.Microsecond

// TestLockSectionAccounting verifies the server-mutex instrumentation:
// a request queued behind a held lock lands one observation in the
// section's wait and hold histograms and reports the wait on its request
// record, whose flight-log line shows it.
func TestLockSectionAccounting(t *testing.T) {
	srv := newTestServer()
	w, _ := buildWorkload(syntheticTrain(50, 1), 7)

	// Hold the server mutex so the optimize request must queue past
	// forcedWait: the hold is counted from the moment the other goroutine
	// says it is about to call Optimize, and lasts 200 forced waits, so only
	// a goroutine that stalls that long between the signal and the lock
	// (nothing lies between them) could wait less than one.
	srv.mu.Lock()
	req := &obs.Request{RequestID: "req-lock"}
	calling, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(calling)
		srv.Optimize(w, req)
	}()
	<-calling
	time.Sleep(200 * forcedWait)
	srv.mu.Unlock()
	<-done

	m := srv.metrics
	if n := m.lockWait["optimize"].Count(); n != 1 {
		t.Fatalf("optimize lock-wait observations = %d, want 1", n)
	}
	if s := m.lockWait["optimize"].Sum(); s < forcedWait.Seconds() {
		t.Fatalf("optimize lock-wait sum = %v s, want >= %v", s, forcedWait)
	}
	if n := m.lockHold["optimize"].Count(); n != 1 {
		t.Fatalf("optimize lock-hold observations = %d, want 1", n)
	}
	if st := srv.Stats(); st.LockWaitSec < forcedWait.Seconds() || st.LockHoldSec <= 0 {
		t.Fatalf("scalar lock totals = wait %v / hold %v, want both positive",
			st.LockWaitSec, st.LockHoldSec)
	}

	// The wait was written into the record the request carried, which is
	// what the edge emits to the flight log (the client view reads it there),
	// and the flight log's text view shows it.
	if req.LockWaitNanos < forcedWait.Nanoseconds() {
		t.Fatalf("request record lock wait = %d ns, want >= %v", req.LockWaitNanos, forcedWait)
	}
	var line strings.Builder
	if err := obs.NewFlightReport([]obs.Request{*req}, obs.RequestFilter{}).WriteText(&line); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line.String(), " lock=") {
		t.Fatalf("flight line of a request that queued shows no lock wait:\n%s", line.String())
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
}
