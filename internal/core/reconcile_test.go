package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/synth"
)

// reconcileLocked is the updater's apply step as it was while every update
// reconciled the whole store with the whole selection: every stored artifact
// that is neither a source nor selected is evicted, every selected vertex is
// looked up in the store, in selection order. It is the oracle of
// TestDeltaUpdaterMatchesFullReconcile.
func (s *Server) reconcileLocked(available map[string]graph.Artifact) (want []string) {
	sources := make(map[string]bool)
	put := func(id string) {
		if content, ok := available[id]; ok {
			_ = s.Store.Put(id, content)
		} else {
			want = append(want, id)
		}
	}
	for _, id := range s.EG.Sources() {
		sources[id] = true
		if !s.Store.Has(id) {
			put(id)
		}
	}
	var desired []string
	s.Store.Holding(func(held func(string) bool) {
		desired = s.strategy.Select(s.EG, held, s.budget, false, nil).SelectedIDs()
	})
	desiredSet := make(map[string]bool, len(desired))
	for _, id := range desired {
		desiredSet[id] = true
	}
	for _, id := range s.Store.StoredIDs() {
		if !sources[id] && !desiredSet[id] {
			s.Store.Evict(id)
		}
	}
	for _, id := range desired {
		if !s.Store.Has(id) {
			put(id)
		}
	}
	return want
}

// updateByReconcile is UpdateContent with reconcileLocked for its apply step,
// and without its instruments.
func (s *Server) updateByReconcile(executed *graph.DAG) []string {
	content := make(map[string]graph.Artifact)
	for _, n := range executed.Nodes() {
		if n.Content != nil {
			content[n.ID] = n.Content
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.EG.Merge(executed)
	want := s.askOnceLocked(executed, s.reconcileLocked(content))
	s.Store.Holding(func(held func(string) bool) { s.EG.Prune(s.prune, held) })
	return want
}

// TestDeltaUpdaterMatchesFullReconcile runs random update sequences through
// two servers, the updater that applies what the run changed and the full
// reconcile it replaced, and demands after every update the same want list,
// in its order, the same stored IDs and the same vertices. The sequences mix
// workloads of one synthetic universe (some of their content carried, the
// rest wanted), uploads that arrive outside an update (of vertices the graph
// holds, of sources, of IDs it does not know, of vertices it never selects),
// fetches that reorder and promote, and pruning; the strategies are SA, HM,
// HL, ALL and LimitCount under budgets that bind and that fit; the stores are
// memory only, a memory budget with no disk tier (puts evict for good) and a
// disk tier with budgets on both tiers (demotions and disk evictions).
func TestDeltaUpdaterMatchesFullReconcile(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := materialize.Config{Alpha: []float64{0.5, 1}[rng.Intn(2)], Profile: cost.Memory()}
		strategies := []materialize.Strategy{
			materialize.NewStorageAware(cfg), materialize.NewGreedy(cfg), materialize.NewHelix(cfg), materialize.NewAll(),
			materialize.LimitCount{Inner: []materialize.Strategy{materialize.NewGreedy(cfg), materialize.NewStorageAware(cfg)}[rng.Intn(2)], K: 1 + rng.Intn(4)},
		}
		strategy := strategies[rng.Intn(len(strategies))]
		budget := []int64{1 << 40, int64(rng.Intn(6 << 20))}[rng.Intn(2)]
		kind := rng.Intn(3)
		memBudget, diskBudget := int64(200+rng.Intn(1500)), int64(400+rng.Intn(3000))
		newStore := func() *store.Manager {
			switch kind {
			case 1:
				return store.NewTiered(cost.Memory(), store.Options{MemoryBudget: memBudget})
			case 2:
				d, _, err := tier.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return store.NewTiered(cost.Memory(), store.Options{MemoryBudget: memBudget, Disk: d, DiskBudget: diskBudget})
			}
			return store.New(cost.Memory())
		}
		var prune eg.PrunePolicy
		if rng.Intn(2) == 0 {
			prune = eg.PrunePolicy{MaxIdleWorkloads: 1 + rng.Intn(4), MinFrequency: rng.Intn(3)}
		}
		opts := []ServerOption{WithStrategy(strategy), WithBudget(budget), WithPrunePolicy(prune)}
		delta, oracle := NewServer(newStore(), opts...), NewServer(newStore(), opts...)
		label := fmt.Sprintf("seed %d (%s, budget %d, store %d, prune %+v)", seed, strategy.Name(), budget, kind, prune)

		u := synth.NewUniverse(seed, 40+rng.Intn(80))
		content := func() graph.Artifact {
			return &graph.AggregateArtifact{Value: rng.Float64(), Text: strings.Repeat("x", rng.Intn(300))}
		}
		// What a recovered disk tier hands a new server: content for vertices
		// the graph will learn, and for IDs it never will.
		if rng.Intn(2) == 0 {
			for i, n := range u.Workload(rng).Nodes() {
				id := n.ID
				if i%5 == 0 {
					id = fmt.Sprintf("recovered-%d", i)
				}
				if rng.Intn(4) == 0 {
					a := content()
					if delta.Store.Put(id, a) != nil || oracle.Store.Put(id, a) != nil {
						t.Fatal("put refused")
					}
				}
			}
		}
		updates := 0
		for step := 0; step < 40; step++ {
			switch r := rng.Intn(8); {
			case r == 0: // an upload that arrives outside an update
				var id string
				switch vs := delta.EG.Vertices(); {
				case rng.Intn(3) == 0 || len(vs) == 0:
					id = fmt.Sprintf("stray-%d", rng.Intn(4))
				default:
					id = vs[rng.Intn(len(vs))].ID
				}
				a := content()
				if err := delta.PutArtifact(id, a, nil); err != nil {
					t.Fatal(err)
				}
				if err := oracle.PutArtifact(id, a, nil); err != nil {
					t.Fatal(err)
				}
			case r == 1: // a fetch, which moves the artifact up the LRU and promotes it
				if ids := delta.Store.StoredIDs(); len(ids) > 0 {
					sort.Strings(ids)
					id := ids[rng.Intn(len(ids))]
					delta.FetchTiered(id, nil)
					oracle.FetchTiered(id, nil)
				}
			default:
				w := u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len()))
				for _, n := range w.Nodes() {
					if !n.IsSource() && rng.Intn(2) == 0 {
						n.Content = content()
					}
				}
				got, want := delta.Update(w, nil, 0), oracle.updateByReconcile(w)
				updates++
				if !slices.Equal(got, want) {
					t.Errorf("%s, update %d: wants %v, the full reconcile %v", label, updates, got, want)
					return false
				}
				if msg := sameState(delta, oracle); msg != "" {
					t.Errorf("%s, update %d: %s", label, updates, msg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameState compares what the two servers hold after an update: stored IDs
// and vertices. It returns what differs, or "".
func sameState(delta, oracle *Server) string {
	dIDs, oIDs := delta.Store.StoredIDs(), oracle.Store.StoredIDs()
	sort.Strings(dIDs)
	sort.Strings(oIDs)
	if !slices.Equal(dIDs, oIDs) {
		return fmt.Sprintf("stored %v, the full reconcile %v", dIDs, oIDs)
	}
	dv, ov := delta.EG.Vertices(), oracle.EG.Vertices()
	if len(dv) != len(ov) {
		return fmt.Sprintf("%d vertices, the full reconcile %d", len(dv), len(ov))
	}
	for i, v := range dv {
		if v.ID != ov[i].ID {
			return fmt.Sprintf("vertex %s where the full reconcile holds %s", v.ID, ov[i].ID)
		}
	}
	return ""
}
