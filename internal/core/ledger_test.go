package core

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tier"
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

	if _, err := client.Run(synth.Wide(wp, 1)); err != nil {
		t.Fatal(err)
	}
	led := srv.ArtifactLedger()
	if led == nil {
		t.Fatal("default server should enable the ledger")
	}
	if led.EventCount(obs.ArtifactMaterialized) == 0 {
		t.Fatal("first run materialized nothing into the ledger")
	}
	if led.ReuseTotal() != 0 {
		t.Fatalf("reuse observed before any repeat run: %d", led.ReuseTotal())
	}

	res, err := client.Run(synth.Wide(wp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Fatal("second run reused nothing")
	}
	if got := led.ReuseTotal(); got < int64(res.Reused) {
		t.Fatalf("ledger saw %d reuses, run reported %d", got, res.Reused)
	}
	// Calibration (default on) tags fetches with their tier, so reuse
	// lands as memory hits, not the untiered fallback kind.
	if led.EventCount(obs.ArtifactMemoryHit) == 0 {
		t.Fatal("no memory-hit events; tier annotation lost on the way to the ledger")
	}
	_, saved, _, _ := led.Totals()
	if saved <= 0 {
		t.Fatalf("realized savings = %v, want > 0 (Cr ≫ fetch for the sleep chain)", saved)
	}
	// The run's request ID is stamped on the hit events.
	found := false
	for _, rec := range led.Snapshot(obs.ArtifactQuery{}) {
		for _, ev := range rec.Events {
			if ev.Kind == obs.ArtifactMemoryHit && ev.RequestID != "" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no memory-hit event carries a request ID")
	}
}

// TestLedgerAttributesPromotionUntraced: an in-process run with no trace
// recorder attached still carries its request record into every fetch, so
// when a planned reuse is served by the disk tier the promotion it causes
// names the run on the artifact ledger.
func TestLedgerAttributesPromotionUntraced(t *testing.T) {
	disk, _, err := tier.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store.NewTiered(cost.Memory(), store.Options{Disk: disk}))
	client := NewClient(srv, WithParallelism(1)) // no WithTrace
	wp := synth.WideProfile{Branches: 2, Depth: 2, Sleep: 4 * time.Millisecond}
	if _, err := client.Run(synth.Wide(wp, 1)); err != nil {
		t.Fatal(err)
	}
	// Push everything the first run materialized down to the disk tier.
	if err := srv.Store.FlushToDisk(); err != nil {
		t.Fatal(err)
	}
	if mem, _ := srv.Store.TierCounts(); mem != 0 {
		t.Fatalf("%d artifacts still in memory after the flush", mem)
	}

	res, err := client.Run(synth.Wide(wp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Fatal("second run reused nothing; no disk fetch to attribute")
	}
	promoted := 0
	for _, rec := range srv.ArtifactLedger().Snapshot(obs.ArtifactQuery{}) {
		for _, ev := range rec.Events {
			if ev.Kind != obs.ArtifactPromoted {
				continue
			}
			promoted++
			if ev.RequestID != res.RequestID {
				t.Errorf("promote of %s attributed to %q, want the run's ID %q",
					rec.ID, ev.RequestID, res.RequestID)
			}
		}
	}
	if promoted == 0 {
		t.Fatal("no promote event despite reuse served from the disk tier")
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
