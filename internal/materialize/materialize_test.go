package materialize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/workloads/synth"
)

type stubOp struct {
	name string
	kind graph.Kind
	ext  bool
}

func (o stubOp) Name() string        { return o.name }
func (o stubOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o stubOp) OutKind() graph.Kind { return o.kind }
func (o stubOp) External() bool      { return o.ext }
func (o stubOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// annotate fakes an executed vertex.
func annotate(n *graph.Node, t time.Duration, size int64, q float64) {
	n.ComputeTime = t
	n.SizeBytes = size
	n.Quality = q
}

func cfg() Config {
	return Config{Alpha: 0.5, Profile: cost.Memory()}
}

// none is the held predicate of an empty store.
func none(string) bool { return false }

// buildEG constructs an EG with a chain of three derived artifacts of
// decreasing cost-effectiveness plus a high-quality model.
func buildEG() (*eg.Graph, []*graph.Node) {
	w := graph.NewDAG()
	src := w.AddSource("train", &graph.AggregateArtifact{})
	src.SizeBytes = 10 << 20
	a := w.Apply(src, stubOp{name: "expensive", kind: graph.DatasetKind})
	annotate(a, 10*time.Second, 1<<20, 0) // very cheap to store, costly to recompute
	b := w.Apply(a, stubOp{name: "cheap", kind: graph.DatasetKind})
	annotate(b, 10*time.Millisecond, 64<<20, 0) // big and cheap to recompute
	m := w.Apply(a, stubOp{name: "train", kind: graph.ModelKind})
	annotate(m, 5*time.Second, 1<<10, 0.9)
	g := eg.New()
	g.Merge(w)
	return g, []*graph.Node{src, a, b, m}
}

func TestGreedyRespectsBudget(t *testing.T) {
	g, nodes := buildEG()
	hm := NewGreedy(cfg())
	sel := hm.Select(g, none, 2<<20, nil).SelectedIDs() // 2 MiB: fits a (1 MiB) and m (1 KiB), not b
	selSet := map[string]bool{}
	var total int64
	for _, id := range sel {
		selSet[id] = true
		total += g.Vertex(id).SizeBytes
	}
	if total > 2<<20 {
		t.Errorf("selection exceeds budget: %d", total)
	}
	if !selSet[nodes[1].ID] {
		t.Error("high-utility artifact a should be selected")
	}
	if selSet[nodes[0].ID] {
		t.Error("sources are excluded from budgeted selection")
	}
}

func TestGreedyPrefersModelQualityWithHighAlpha(t *testing.T) {
	g, nodes := buildEG()
	c := cfg()
	c.Alpha = 1 // only quality matters
	hm := NewGreedy(c)
	sel := hm.Select(g, none, g.Vertex(nodes[3].ID).SizeBytes, nil).SelectedIDs() // room for exactly the model
	if len(sel) == 0 || sel[0] != nodes[3].ID {
		t.Errorf("α=1 budget-of-one should pick the model, got %v", sel)
	}
}

// TestAlphaZeroWeighsOnlyTheCostSizeRatio: of two 1 MiB candidates under a
// budget of one, d recomputes in 10 s and feeds no model, m recomputes in 1 s
// and scores 0.9. α = 0 ranks by r_cs alone and admits d; α = 0.5 lets m's
// quality outweigh d's ratio.
func TestAlphaZeroWeighsOnlyTheCostSizeRatio(t *testing.T) {
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	d := w.Apply(src, stubOp{name: "d", kind: graph.DatasetKind})
	annotate(d, 10*time.Second, 1<<20, 0)
	m := w.Apply(src, stubOp{name: "m", kind: graph.ModelKind})
	annotate(m, time.Second, 1<<20, 0.9)
	g := eg.New()
	g.Merge(w)
	for _, tc := range []struct {
		alpha float64
		want  string
	}{{0, d.ID}, {0.5, m.ID}} {
		c := cfg()
		c.Alpha = tc.alpha
		if got := NewGreedy(c).Select(g, none, 1<<20, nil).SelectedIDs(); !slices.Equal(got, []string{tc.want}) {
			t.Errorf("α=%v selected %v, want [%s]", tc.alpha, got, tc.want)
		}
	}
}

func TestLoadCostVetoExcludesCheapRecomputes(t *testing.T) {
	// An artifact whose recompute is faster than its load must never be
	// materialized (Equation 2's veto).
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	fast := w.Apply(src, stubOp{name: "fast", kind: graph.DatasetKind})
	annotate(fast, time.Nanosecond, 1<<30, 0) // 1 GiB that recomputes in 1ns
	g := eg.New()
	g.Merge(w)
	run := NewGreedy(Config{Alpha: 0.5, Profile: cost.Disk()}).Select(g, none, 1<<40, nil)
	if run.Selected != 0 {
		t.Errorf("vetoed artifact selected: %v", run.SelectedIDs())
	}
	if run.Eligible != 1 || run.Vetoed != 1 || run.OverBudget() != 0 {
		t.Errorf("run counts eligible %d, vetoed %d, over budget %d; want 1, 1, 0",
			run.Eligible, run.Vetoed, run.OverBudget())
	}
}

// TestEverythingFitsOnlyAPositiveBudget: a candidate of zero bytes fits a
// budget of 0. Algorithm 1 admits it; the storage-aware strategy starts no
// round with nothing remaining, so it selects nothing, and a run must not
// take the all-fit shortcut to say otherwise.
func TestEverythingFitsOnlyAPositiveBudget(t *testing.T) {
	w := graph.NewDAG()
	empty := w.Apply(w.AddSource("s", &graph.AggregateArtifact{}), stubOp{name: "empty", kind: graph.DatasetKind})
	annotate(empty, time.Second, 0, 0)
	g := eg.New()
	g.Merge(w)
	if run := NewGreedy(cfg()).Select(g, none, 0, nil); run.Selected != 1 || len(run.Admitted) != 1 {
		t.Errorf("HM at budget 0 selected %d, admitted %v; want the empty artifact", run.Selected, run.Admitted)
	}
	if run := NewStorageAware(cfg()).Select(g, none, 0, nil); run.Selected != 0 || len(run.Admitted) != 0 {
		t.Errorf("SA at budget 0 selected %d, admitted %v; want nothing", run.Selected, run.Admitted)
	}
}

func TestExternalArtifactsNeverMaterialized(t *testing.T) {
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	kde := w.Apply(src, stubOp{name: "kde", kind: graph.AggregateKind, ext: true})
	annotate(kde, 10*time.Second, 1<<10, 0)
	g := eg.New()
	g.Merge(w)
	for _, s := range []Strategy{NewGreedy(cfg()), NewStorageAware(cfg()), NewHelix(cfg()), NewAll()} {
		for _, id := range s.Select(g, none, 1<<40, nil).SelectedIDs() {
			if id == kde.ID {
				t.Errorf("%s materialized an external artifact", s.Name())
			}
		}
	}
}

// overlappingEG builds an EG where derived artifacts share columns with
// their input, so SA can store more than HM under the same budget.
func overlappingEG() (*eg.Graph, []string) {
	w := graph.NewDAG()
	base := make([]*data.Column, 8)
	for i := range base {
		vals := make([]float64, 1024) // 8 KiB per column
		base[i] = data.NewFloatColumn(fmt.Sprintf("c%d", i), vals)
	}
	full := data.MustNewFrame(base...)
	src := w.AddSource("train", &graph.DatasetArtifact{Frame: full})
	src.SizeBytes = full.SizeBytes()

	var ids []string
	// Each derived artifact selects 6 of the 8 columns: heavy overlap.
	for k := 0; k < 4; k++ {
		op := stubOp{name: fmt.Sprintf("sel%d", k), kind: graph.DatasetKind}
		n := w.Apply(src, op)
		sub, _ := full.Select("c0", "c1", "c2", "c3", "c4", fmt.Sprintf("c%d", 5+(k%3)))
		n.Content = &graph.DatasetArtifact{Frame: sub}
		annotate(n, time.Duration(k+1)*time.Second, sub.SizeBytes(), 0)
		ids = append(ids, n.ID)
	}
	g := eg.New()
	g.Merge(w)
	return g, ids
}

func TestStorageAwareStoresMoreThanGreedy(t *testing.T) {
	g, _ := overlappingEG()
	budget := int64(14*8) << 10 // 112 KiB: ~2.3 artifacts logically
	hm := NewGreedy(cfg()).Select(g, none, budget, nil).SelectedIDs()
	sa := NewStorageAware(cfg()).Select(g, none, budget, nil).SelectedIDs()
	if len(sa) <= len(hm) {
		t.Errorf("SA should materialize more under overlap: SA=%d HM=%d", len(sa), len(hm))
	}
	if got := g.DedupedSize(sa); got > budget {
		t.Errorf("SA deduped size %d exceeds budget %d", got, budget)
	}
	// The logical ("real") size SA admits exceeds the budget (Figure 6).
	var logical int64
	for _, id := range sa {
		logical += g.Vertex(id).SizeBytes
	}
	if logical <= budget {
		t.Errorf("logical=%d should exceed budget=%d under heavy overlap", logical, budget)
	}
}

func TestHelixMaterializesRootFirst(t *testing.T) {
	// Chain where the deepest artifact has the highest utility; Helix
	// must still exhaust its budget near the root.
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(src, stubOp{name: "a", kind: graph.DatasetKind})
	annotate(a, 2*time.Second, 8<<20, 0)
	b := w.Apply(a, stubOp{name: "b", kind: graph.DatasetKind})
	annotate(b, 2*time.Second, 8<<20, 0)
	c := w.Apply(b, stubOp{name: "c", kind: graph.DatasetKind})
	annotate(c, 20*time.Second, 8<<20, 0) // highest utility, farthest from root
	g := eg.New()
	g.Merge(w)

	hl := NewHelix(cfg()).Select(g, none, 16<<20, nil).SelectedIDs() // room for two artifacts
	if len(hl) != 2 {
		t.Fatalf("HL selected %d, want 2", len(hl))
	}
	sel := map[string]bool{hl[0]: true, hl[1]: true}
	if !sel[a.ID] || !sel[b.ID] {
		t.Errorf("HL should take root-first {a,b}, got %v", hl)
	}
	hm := NewGreedy(cfg()).Select(g, none, 16<<20, nil).SelectedIDs()
	hmSet := map[string]bool{}
	for _, id := range hm {
		hmSet[id] = true
	}
	if !hmSet[c.ID] {
		t.Errorf("HM should prioritize the high-utility c, got %v", hm)
	}
}

func TestAllSelectsEverythingEligible(t *testing.T) {
	g, nodes := buildEG()
	sel := NewAll().Select(g, none, 0, nil).SelectedIDs()
	if len(sel) != 3 { // a, b, m — not the source
		t.Errorf("ALL selected %d, want 3: %v", len(sel), sel)
	}
	for _, id := range sel {
		if id == nodes[0].ID {
			t.Error("ALL must not include sources")
		}
	}
}

func TestDeterministicSelection(t *testing.T) {
	g, _ := buildEG()
	a := NewStorageAware(cfg()).Select(g, none, 4<<20, nil).SelectedIDs()
	b := NewStorageAware(cfg()).Select(g, none, 4<<20, nil).SelectedIDs()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic selection size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic selection order")
		}
	}
}

// TestRunAccountsForEveryEligibleVertex pins the one-record contract for the
// strategies the daemon accepts, on a graph of overlapping synthetic
// workloads under a budget that binds: reading a run's outcomes back leaves
// it deciding as it did, and they hold every eligible vertex once, by ID,
// under the outcome the strategy's own rule gives it — so that selected +
// vetoed + over budget = eligible, in the outcomes and in the counts alike.
func TestRunAccountsForEveryEligibleVertex(t *testing.T) {
	// A link slow enough (Cl of 1 to 1.25 s beside compute times of up to
	// 2 s) that both vetoes fire, and fire differently.
	profile := cost.Profile{Name: "slow", Latency: time.Second, BytesPerSecond: 4 << 20}
	c := Config{Alpha: 0.5, Profile: profile}
	u := synth.NewUniverse(7, 200)
	rng := rand.New(rand.NewSource(7))
	g := eg.New()
	for i := 0; i < 12; i++ {
		g.Merge(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())))
	}
	const budget = 6 << 20
	algorithm1 := func(cl, cr time.Duration) bool { return cl >= cr }
	helix := func(cl, cr time.Duration) bool { return cr <= 2*cl }
	for _, tc := range []struct {
		strategy Strategy
		veto     func(cl, cr time.Duration) bool
	}{
		{NewStorageAware(c), algorithm1},
		{NewGreedy(c), algorithm1},
		{NewHelix(c), helix},
		{NewAll(), func(_, _ time.Duration) bool { return false }},
		{LimitCount{Inner: NewGreedy(c), K: 3}, algorithm1}, // not the daemon's: Fig 8b's
	} {
		t.Run(tc.strategy.Name(), func(t *testing.T) {
			run := tc.strategy.Select(g, none, budget, nil)
			type decision struct {
				Vertex  *eg.Vertex
				Outcome Outcome
			}
			var trail []decision
			run.Outcomes(g, func(v *eg.Vertex, o Outcome, _ bool) { trail = append(trail, decision{v, o}) })
			bare := tc.strategy.Select(g, none, budget, nil)
			if !slices.Equal(run.SelectedIDs(), bare.SelectedIDs()) || run.Eligible != bare.Eligible || run.Vetoed != bare.Vetoed {
				t.Errorf("reading the outcomes changed the run: %d/%d/%d selected/eligible/vetoed read, %d/%d/%d unread",
					run.Selected, run.Eligible, run.Vetoed, bare.Selected, bare.Eligible, bare.Vetoed)
			}
			var eligibleIDs []string
			for _, v := range g.Vertices() {
				if v.Kind != graph.SupernodeKind && !v.External && !v.IsSource() {
					eligibleIDs = append(eligibleIDs, v.ID)
				}
			}
			outcome := make(map[string]Outcome, len(trail))
			tally := map[Outcome]int{}
			var trailIDs []string
			for _, d := range trail {
				trailIDs = append(trailIDs, d.Vertex.ID)
				outcome[d.Vertex.ID] = d.Outcome
				tally[d.Outcome]++
				cl, cr := profile.LoadCost(d.Vertex.SizeBytes), d.Vertex.RecreationCost()
				if vetoed := tc.veto(cl, cr); d.Outcome == Vetoed && !vetoed || d.Outcome == Selected && vetoed {
					t.Errorf("%s is %s with Cl %v and Cr %v", d.Vertex.Name, d.Outcome, cl, cr)
				}
			}
			if !slices.Equal(trailIDs, eligibleIDs) {
				t.Fatalf("the trail holds %d vertices, the graph %d eligible ones (or in another order)", len(trailIDs), len(eligibleIDs))
			}
			if tally[Selected] != run.Selected || tally[Vetoed] != run.Vetoed || tally[OverBudget] != run.OverBudget() ||
				run.Selected+run.Vetoed+run.OverBudget() != run.Eligible || run.Eligible != len(eligibleIDs) {
				t.Errorf("trail %v, counts: %d selected, %d vetoed, %d over budget of %d eligible",
					tally, run.Selected, run.Vetoed, run.OverBudget(), run.Eligible)
			}
			if tc.strategy.Name() != "ALL" && (run.Selected == 0 || run.Vetoed == 0 || run.OverBudget() == 0) {
				t.Fatalf("fixture leaves an outcome unused: %v", tally)
			}
			for _, id := range run.SelectedIDs() {
				if outcome[id] != Selected {
					t.Errorf("selected %s is %q in the trail", id, outcome[id])
				}
			}
			if tc.strategy.Name() != "HL" {
				return
			}
			// Helix's own veto and its early stop: a vertex that Algorithm 1
			// would keep (Cl < Cr) and Helix does not (Cr ≤ 2·Cl) is vetoed,
			// and past the vertex that overflowed the budget nothing is
			// weighed — it is over budget, whatever the veto would have said.
			var nearVetoes, unweighed int
			stopped := false
			for _, id := range g.TopoOrder() {
				o, ok := outcome[id]
				if !ok {
					continue
				}
				v := g.Vertex(id)
				cl, cr := profile.LoadCost(v.SizeBytes), v.RecreationCost()
				switch {
				case stopped && o != OverBudget:
					t.Errorf("%s is %s after the scan stopped", v.Name, o)
				case stopped && helix(cl, cr):
					unweighed++
				case o == OverBudget:
					stopped = true
				case o == Vetoed && !algorithm1(cl, cr):
					nearVetoes++
				}
			}
			if nearVetoes == 0 || unweighed == 0 {
				t.Fatalf("fixture exercises %d vetoes with Cl < Cr ≤ 2·Cl and %d vetoable vertices past the stop; want both", nearVetoes, unweighed)
			}
		})
	}
}
