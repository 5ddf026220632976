package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/materialize"
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
	st := srv.Stats()
	offPath, byCost, notMat := st.PlanPrunedOffPath, st.PlanPrunedByCost, st.PlanPrunedNotMaterialized
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

// TestMaterializeCountersAndExplainReadTheRun drives a fixed sequence of
// overlapping synthetic workloads through the updater and checks the two
// readers of the strategy's record against each other and against what the
// counters read on that sequence before the record existed (when they were
// counted inside the strategies): collab_materialize_considered_total and
// _vetoed_total are the sums of the records' eligible and vetoed counts, and
// the explain record classifies under the strategy's own veto — under Helix a
// vertex with Cl < Cr ≤ 2·Cl is vetoed-load-cost, which the Algorithm-1 rule
// explain once applied to every strategy called budget-exhausted. (HL's
// budget is roomy: once its scan stops, considered also counts the vertices
// it never weighed, as the record's eligible does.)
func TestMaterializeCountersAndExplainReadTheRun(t *testing.T) {
	slow := cost.Profile{Name: "slow", Latency: time.Second, BytesPerSecond: 4 << 20}
	cfg := materialize.Config{Alpha: 0.5, Profile: slow}
	for _, tc := range []struct {
		strategy           materialize.Strategy
		budget             int64
		considered, vetoed int64
	}{
		{materialize.NewStorageAware(cfg), 4 << 20, 471, 42},
		{materialize.NewHelix(cfg), 1 << 30, 471, 79},
	} {
		t.Run(tc.strategy.Name(), func(t *testing.T) {
			rec := explain.NewRecorder(16)
			srv := NewServer(store.New(slow), WithStrategy(tc.strategy), WithBudget(tc.budget), WithExplain(rec))
			u := synth.NewUniverse(11, 120)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 12; i++ {
				srv.Update(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())), nil, 0)
			}
			considered := srv.Metrics().Counter("collab_materialize_considered_total", "").Value()
			vetoed := srv.Metrics().Counter("collab_materialize_vetoed_total", "").Value()
			if considered != tc.considered || vetoed != tc.vetoed {
				t.Errorf("counters read considered %d, vetoed %d; want %d, %d", considered, vetoed, tc.considered, tc.vetoed)
			}
			var eligible, vetoedRows, nearVetoes int64
			for _, r := range rec.Records() {
				eligible += int64(r.Mat.Eligible)
				if r.Mat.Selected+r.Mat.VetoedLoadCost+r.Mat.BudgetExhausted != r.Mat.Eligible || len(r.Materialize) != r.Mat.Eligible {
					t.Errorf("record %d does not add up: %+v over %d rows", r.Seq, *r.Mat, len(r.Materialize))
				}
				for _, m := range r.Materialize {
					if m.Decision == explain.MatVetoedLoadCost {
						vetoedRows++
						if m.LoadCost < m.RecreationCost {
							nearVetoes++
						}
					}
				}
			}
			if eligible != considered || vetoedRows != vetoed {
				t.Errorf("records sum to %d eligible, %d vetoed rows; counters read %d, %d", eligible, vetoedRows, considered, vetoed)
			}
			if helix := tc.strategy.Name() == "HL"; helix != (nearVetoes > 0) {
				t.Errorf("%d rows vetoed with Cl < Cr", nearVetoes)
			}
		})
	}
}
