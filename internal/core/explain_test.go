package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// TestServerExplainCapturesRun runs a workload twice against an
// explain-enabled server and checks that both the optimize and the update
// decision trails are captured and correlated by the run's request ID.
func TestServerExplainCapturesRun(t *testing.T) {
	rec := explain.NewRecorder(8)
	srv := NewServer(store.New(cost.Memory()), WithExplain(rec))
	p := wideWorkload()

	res1, err := NewClient(srv).Run(synth.Wide(*p, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res1.RequestID == "" {
		t.Fatal("run did not generate a request ID")
	}

	res2, err := NewClient(srv).Run(synth.Wide(*p, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reused == 0 {
		t.Fatal("second run reused nothing; explain assertions need a reuse plan")
	}

	opt := rec.Last(explain.KindOptimize)
	if opt == nil {
		t.Fatal("no optimize record captured")
	}
	if opt.RequestID != res2.RequestID {
		t.Errorf("optimize record request_id %q, want %q", opt.RequestID, res2.RequestID)
	}
	if opt.Planner == "" || opt.Plan == nil || len(opt.Vertices) == 0 {
		t.Errorf("optimize record incomplete: %+v", opt)
	}
	var reused int
	for _, v := range opt.Vertices {
		if v.Decision == explain.DecisionReuse {
			reused++
		}
	}
	if reused != opt.Plan.Reuse {
		t.Errorf("per-vertex reuse decisions %d disagree with summary %d", reused, opt.Plan.Reuse)
	}

	upd := rec.Last(explain.KindUpdate)
	if upd == nil {
		t.Fatal("no update record captured")
	}
	if upd.Mat == nil || upd.Mat.Strategy == "" {
		t.Errorf("update record incomplete: %+v", upd)
	}

	// One run's full trail is retrievable by its request ID.
	trail := rec.ByRequest(res2.RequestID)
	kinds := map[string]bool{}
	for _, r := range trail {
		kinds[r.Kind] = true
	}
	if !kinds[explain.KindOptimize] || !kinds[explain.KindUpdate] {
		t.Errorf("ByRequest(%s) missing kinds: got %v", res2.RequestID, kinds)
	}
}

// TestServerExplainDisabledByDefault: no WithExplain means a nil recorder
// and no capture work.
func TestServerExplainDisabledByDefault(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	if srv.Explain() != nil {
		t.Fatal("explain enabled without WithExplain")
	}
	if _, err := NewClient(srv).Run(synth.Wide(*wideWorkload(), 7)); err != nil {
		t.Fatal(err)
	}
	if srv.Explain().Last("") != nil {
		t.Fatal("disabled recorder captured a record")
	}
}

// TestPlanPrunedCountersSplit checks the reason-coded pruning counters stay
// consistent with the per-record stats.
func TestPlanPrunedCountersSplit(t *testing.T) {
	rec := explain.NewRecorder(8)
	srv := NewServer(store.New(cost.Memory()), WithExplain(rec))
	p := wideWorkload()
	for i := 0; i < 2; i++ {
		if _, err := NewClient(srv).Run(synth.Wide(*p, 7)); err != nil {
			t.Fatal(err)
		}
	}
	offPath, byCost, notMat := srv.PlanPruned()
	if offPath < 0 || byCost < 0 || notMat < 0 {
		t.Fatalf("negative pruned counters: %d %d %d", offPath, byCost, notMat)
	}
	var wantOff, wantCost, wantNotMat int64
	for _, r := range rec.Records() {
		if r.Kind != explain.KindOptimize {
			continue
		}
		wantOff += int64(r.Plan.PrunedOffPath)
		wantCost += int64(r.Plan.PrunedByCost)
		wantNotMat += int64(r.Plan.PrunedNotMaterialized)
	}
	if offPath != wantOff || byCost != wantCost || notMat != wantNotMat {
		t.Errorf("counters (%d,%d,%d) disagree with summed plan stats (%d,%d,%d)",
			offPath, byCost, notMat, wantOff, wantCost, wantNotMat)
	}
}
