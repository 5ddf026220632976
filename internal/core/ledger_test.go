package core

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// TestLedgerObservesReuseSavings drives the same workload twice through an
// in-process server and asserts the artifact ledger joined the planner's
// recreation costs with the measured fetch times: reused vertices show up
// as tier-tagged hits with positive realized savings (the 4ms-per-op
// compute chain dwarfs a microsecond memory fetch).
func TestLedgerObservesReuseSavings(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	client := NewClient(srv, WithParallelism(1))
	wp := synth.WideProfile{Branches: 3, Depth: 2, Sleep: 4 * time.Millisecond}

	// reuses sums the ledger's reuse count and its memory hits.
	led := srv.ArtifactLedger()
	reuses := func() (total, memory int64) {
		for _, r := range led.Snapshot(obs.ArtifactQuery{}) {
			total += r.Reuse
			memory += r.MemoryHits
		}
		return total, memory
	}
	if _, err := client.Run(synth.Wide(wp, 1)); err != nil {
		t.Fatal(err)
	}
	if led == nil {
		t.Fatal("default server should enable the ledger")
	}
	if led.Len() == 0 || led.Len() != srv.Store.Len() {
		t.Fatalf("ledger tracks %d artifacts after the first run, the store holds %d", led.Len(), srv.Store.Len())
	}
	if total, _ := reuses(); total != 0 {
		t.Fatalf("reuse observed before any repeat run: %d", total)
	}

	res, err := client.Run(synth.Wide(wp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Fatal("second run reused nothing")
	}
	total, memory := reuses()
	if total < int64(res.Reused) {
		t.Fatalf("ledger saw %d reuses, run reported %d", total, res.Reused)
	}
	// Calibration (default on) tags fetches with their tier, so reuse
	// lands as memory hits, not as unmeasured reuse.
	if memory == 0 {
		t.Fatal("no memory hits; tier annotation lost on the way to the ledger")
	}
	_, saved, _, _ := led.Totals()
	if saved <= 0 {
		t.Fatalf("realized savings = %v, want > 0 (Cr ≫ fetch for the sleep chain)", saved)
	}
}

// TestLedgerDisabledServer: WithArtifactLedger(nil) turns the whole
// subsystem off — runs proceed normally and nothing is tracked.
func TestLedgerDisabledServer(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()), WithArtifactLedger(nil))
	if srv.ArtifactLedger() != nil {
		t.Fatal("ledger should be disabled")
	}
	client := NewClient(srv, WithParallelism(1))
	wp := synth.WideProfile{Branches: 2, Depth: 2, Sleep: time.Millisecond}
	for i := 0; i < 2; i++ {
		if _, err := client.Run(synth.Wide(wp, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.ArtifactLedger().Len() != 0 {
		t.Fatal("disabled ledger accumulated records")
	}
	if srv.Store.Ledger() != nil {
		t.Fatal("store should have no ledger attached when disabled")
	}
}
