package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// TestServerExplainCapturesRun runs a workload twice against an
// explain-enabled server and checks that both the optimize and the update
// decision trails are captured and correlated by the run's request ID.
func TestServerExplainCapturesRun(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()), WithExplain(true))
	rec := srv.Explain()
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
	trail := []*explain.Record{rec.Last(explain.KindOptimize), rec.Last(explain.KindUpdate)}
	kinds := map[string]bool{}
	for _, r := range trail {
		if r.RequestID == res2.RequestID {
			kinds[r.Kind] = true
		}
	}
	if !kinds[explain.KindOptimize] || !kinds[explain.KindUpdate] {
		t.Errorf("the last records of %s miss kinds: got %v", res2.RequestID, kinds)
	}
}

// TestServerExplainDisabledByDefault: no WithExplain means no reader of
// records, and so nowhere to keep one, through a run.
func TestServerExplainDisabledByDefault(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	if srv.Explain() != nil {
		t.Fatal("explain enabled without WithExplain")
	}
	if _, err := NewClient(srv).Run(synth.Wide(*wideWorkload(), 7)); err != nil {
		t.Fatal(err)
	}
}

// TestPlanPrunedCountersSplit checks the reason-coded pruning counters stay
// consistent with the per-record stats.
func TestPlanPrunedCountersSplit(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()), WithExplain(true))
	p := wideWorkload()
	var records []*explain.Record
	for i := 0; i < 2; i++ {
		if _, err := NewClient(srv).Run(synth.Wide(*p, 7)); err != nil {
			t.Fatal(err)
		}
		records = append(records, srv.Explain().Last(explain.KindOptimize))
	}
	st := srv.Stats()
	offPath, byCost, notMat := st.PlanPrunedOffPath, st.PlanPrunedByCost, st.PlanPrunedNotMaterialized
	if offPath < 0 || byCost < 0 || notMat < 0 {
		t.Fatalf("negative pruned counters: %d %d %d", offPath, byCost, notMat)
	}
	var wantOff, wantCost, wantNotMat int64
	for _, r := range records {
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
			srv := NewServer(store.New(slow), WithStrategy(tc.strategy), WithBudget(tc.budget), WithExplain(true))
			u := synth.NewUniverse(11, 120)
			rng := rand.New(rand.NewSource(11))
			var records []*explain.Record
			for i := 0; i < 12; i++ {
				srv.Update(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())), nil, 0)
				records = append(records, srv.Explain().Last(explain.KindUpdate))
			}
			considered := srv.Metrics().Counter("collab_materialize_considered_total", "").Value()
			vetoed := srv.Metrics().Counter("collab_materialize_vetoed_total", "").Value()
			if considered != tc.considered || vetoed != tc.vetoed {
				t.Errorf("counters read considered %d, vetoed %d; want %d, %d", considered, vetoed, tc.considered, tc.vetoed)
			}
			var eligible, vetoedRows, nearVetoes int64
			for _, r := range records {
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

// repeatableRuns is the in-process server with what a run measures made
// repeatable: each run's request ID is fixed, and every executed vertex's
// compute time is a function of its name.
type repeatableRuns struct {
	*Server
	runs int
}

func (r *repeatableRuns) Optimize(w *graph.DAG, req *obs.Request) *Optimization {
	r.runs++
	req.RequestID = fmt.Sprintf("req-run-%d", r.runs)
	return r.Server.Optimize(w, req)
}

func (r *repeatableRuns) Update(w *graph.DAG, req *obs.Request, _ time.Duration) ([]string, error) {
	for _, n := range w.Nodes() {
		if n.ComputeTime > 0 {
			n.ComputeTime = time.Duration(len(n.Name)) * time.Millisecond
		}
		n.FetchTime = 0
	}
	return r.Server.Update(w, req, 0)
}

// TestExplainRecordsAsTheTrailRenderedThem pins the explain records to
// testdata/explain-records.json, which the strategies' per-vertex trail
// wrote when every update built its record as it ran: the JSON of every
// update record of one synthetic sequence (12 updates, no pruning, some
// carrying their content and some not) under SA, HM, HL, ALL and SA limited
// to one artifact, then the two optimize records of a two-run Client.Run.
// Rendered when read, from the run and the graph, the records must be the
// same bytes.
func TestExplainRecordsAsTheTrailRenderedThem(t *testing.T) {
	var got bytes.Buffer
	write := func(rec *explain.Record) {
		t.Helper()
		if err := rec.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
	}
	slow := cost.Profile{Name: "slow", Latency: time.Second, BytesPerSecond: 4 << 20}
	cfg := materialize.Config{Alpha: 0.5, Profile: slow}
	for _, tc := range []struct {
		name     string
		strategy materialize.Strategy
		budget   int64
	}{
		{"sa", materialize.NewStorageAware(cfg), 4 << 20},
		{"hm", materialize.NewGreedy(cfg), 2 << 20},
		{"hl", materialize.NewHelix(cfg), 4 << 20},
		{"all", materialize.NewAll(), 0},
		{"sa1", materialize.LimitCount{Inner: materialize.NewStorageAware(cfg), K: 1}, 4 << 20},
	} {
		srv := NewServer(store.New(slow), WithStrategy(tc.strategy), WithBudget(tc.budget), WithExplain(true))
		u := synth.NewUniverse(11, 40)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 12; i++ {
			w := u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len()))
			if i%3 != 2 {
				for _, n := range w.Nodes() {
					if n.Content == nil {
						n.Content = &graph.AggregateArtifact{Value: float64(i)}
					}
				}
			}
			req := &obs.Request{RequestID: fmt.Sprintf("req-%s-%d", tc.name, i)}
			if _, err := srv.Update(w, req, time.Duration(i)*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			write(srv.Explain().Last(explain.KindUpdate))
		}
	}
	srv := &repeatableRuns{Server: NewServer(store.New(cost.Memory()), WithExplain(true))}
	for i := 0; i < 2; i++ {
		if _, err := NewClient(srv).Run(synth.Wide(*wideWorkload(), 7)); err != nil {
			t.Fatal(err)
		}
		write(srv.Explain().Last(explain.KindOptimize))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "explain-records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := got.Bytes(), want
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("records differ from testdata/explain-records.json at byte %d of %d: got %q, want %q",
			i, len(w), g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
	}
}

// TestUpdateRecordAfterAPrune: with pruning on, the update record lists the
// eligible vertices the graph still holds after the update, in ID order,
// and its counts are the run's — what the update added to
// collab_materialize_considered_total and _vetoed_total.
func TestUpdateRecordAfterAPrune(t *testing.T) {
	slow := cost.Profile{Name: "slow", Latency: time.Second, BytesPerSecond: 4 << 20}
	srv := NewServer(store.New(slow), WithBudget(4<<20), WithExplain(true),
		WithStrategy(materialize.NewStorageAware(materialize.Config{Alpha: 0.5, Profile: slow})),
		WithPrunePolicy(eg.PrunePolicy{MaxIdleWorkloads: 1}))
	considered := srv.Metrics().Counter("collab_materialize_considered_total", "")
	vetoed := srv.Metrics().Counter("collab_materialize_vetoed_total", "")
	u := synth.NewUniverse(11, 120)
	rng := rand.New(rand.NewSource(11))
	unlisted := 0
	for i := 0; i < 12; i++ {
		c0, v0 := considered.Value(), vetoed.Value()
		if _, err := srv.Update(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())), nil, 0); err != nil {
			t.Fatal(err)
		}
		rec := srv.Explain().Last(explain.KindUpdate)
		if int64(rec.Mat.Eligible) != considered.Value()-c0 || int64(rec.Mat.VetoedLoadCost) != vetoed.Value()-v0 {
			t.Errorf("update %d: record counts %d eligible, %d vetoed; the run %d, %d",
				i, rec.Mat.Eligible, rec.Mat.VetoedLoadCost, considered.Value()-c0, vetoed.Value()-v0)
		}
		var want, got []string
		srv.EG.Visit(func(v *eg.Vertex) {
			if materialize.Keeps(v) && !v.IsSource() {
				want = append(want, v.ID)
			}
		})
		for _, m := range rec.Materialize {
			got = append(got, m.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("update %d: %d rows, the graph holds %d eligible vertices (or in another order)", i, len(got), len(want))
		}
		unlisted += rec.Mat.Eligible - len(got)
	}
	if unlisted == 0 {
		t.Fatal("the sequence pruned no vertex its runs weighed")
	}
}
