package persist

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eg/egtest"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/synth"
)

// TestRestoresSnapshotOfParentCommit loads testdata/parent-b10de20: the
// eg.gob and store.gob that persist.Save wrote at commit b10de20 — the last
// one whose Experiment Graph derived Cr and p per call and kept no order —
// for a server that had run two overlapping workloads, with the Cr and p
// that commit's eg.RecreationCosts()/Potentials() gave beside them
// (expected.json). The snapshot format did not change but for the vertices'
// mat flag, which those files still carry and gob decoding skips (derived
// state is unexported and never encoded), so the files restore, what this
// commit rebuilds from them equals what that commit derived, and what the
// store holds of the graph is what that commit had flagged.
func TestRestoresSnapshotOfParentCommit(t *testing.T) {
	fixture := filepath.Join("testdata", "parent-b10de20")
	raw, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Vertices []struct {
			ID   string  `json:"id"`
			Name string  `json:"name"`
			CrNs int64   `json:"cr_ns"`
			P    float64 `json:"p"`
		} `json:"vertices"`
		Materialized []string `json:"materialized"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	if restored, err := Load(srv, fixture); err != nil || !restored {
		t.Fatalf("Load: restored=%v err=%v", restored, err)
	}
	if srv.EG.Len() != len(want.Vertices) {
		t.Fatalf("restored %d vertices, the snapshot holds %d", srv.EG.Len(), len(want.Vertices))
	}
	var got []string
	for i, v := range srv.EG.Vertices() {
		w := want.Vertices[i] // both sorted by ID
		if v.ID != w.ID || int64(v.RecreationCost()) != w.CrNs || v.Potential() != w.P {
			t.Errorf("%s (%s): Cr %d ns, p %v; the parent commit derived %s: %d ns, %v",
				v.ID, v.Name, int64(v.RecreationCost()), v.Potential(), w.ID, w.CrNs, w.P)
		}
		if srv.Store.Has(v.ID) {
			got = append(got, v.ID)
		}
	}
	if !reflect.DeepEqual(got, want.Materialized) {
		t.Errorf("materialized %v, want %v", got, want.Materialized)
	}
	if err := egtest.Check(srv.EG); err != nil {
		t.Error(err)
	}
}

// TestReadersRunBesideTheUpdater runs, under -race, what touches the
// Experiment Graph without the server lock — the stats route, the explain
// view of the whole graph, the metrics scrape and the checkpoint — against
// a loop of updates. None of them may see a vertex or a list the updater is
// writing: the graph hands out copies of its lists and the graph view
// renders a snapshot.
func TestReadersRunBesideTheUpdater(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(store.NewTiered(cost.Memory(), store.Options{Disk: d}),
		core.WithBudget(8<<20), core.WithExplain(true))
	ts := httptest.NewServer(remote.NewHandler(srv))
	defer ts.Close()

	u := synth.NewUniverse(11, 300)
	rng := rand.New(rand.NewSource(11))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	get := func(path string) func() error {
		return func() error {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	reader(get("/v1/stats"))
	reader(get("/v1/explain?target=eg&format=dot"))
	reader(get("/metrics"))
	reader(func() error { return Save(srv, dir) })

	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; i < 40 || time.Now().Before(deadline); i++ {
		srv.Update(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())), nil, 0)
	}
	close(stop)
	wg.Wait()
	if err := egtest.Check(srv.EG); err != nil {
		t.Error(err)
	}
}

// TestLoadRestoresStoreGobInIDOrder loads the parent-b10de20 store.gob into
// a tiered store whose memory budget holds its largest artifact alone, so
// restoring demotes: the order of the puts decides which artifacts stay in
// memory. Every load of the same files must place every artifact alike.
func TestLoadRestoresStoreGobInIDOrder(t *testing.T) {
	fixture := filepath.Join("testdata", "parent-b10de20")
	probe := core.NewServer(store.New(cost.Memory()))
	if _, err := Load(probe, fixture); err != nil {
		t.Fatal(err)
	}
	ids := probe.Store.StoredIDs()
	var budget int64
	for _, id := range ids {
		budget = max(budget, storedSize(probe.Store, id))
	}
	var first map[string]store.Tier
	for i := 0; i < 20; i++ {
		d, _, err := tier.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(store.NewTiered(cost.Memory(), store.Options{MemoryBudget: budget, Disk: d}))
		if _, err := Load(srv, fixture); err != nil {
			t.Fatal(err)
		}
		tiers := map[string]store.Tier{}
		for _, id := range ids {
			tiers[id] = srv.Store.TierOf(id)
		}
		if first == nil {
			first = tiers
		} else if !reflect.DeepEqual(tiers, first) {
			t.Fatalf("load %d placed the artifacts %v, the first load %v", i, tiers, first)
		}
	}
}

// storedSize is the size of the artifact the store holds for id, from what
// PeekRecords serves: a dataset's columns' sizes, each as often as its
// manifest names it.
func storedSize(m *store.Manager, id string) int64 {
	recs, _ := m.PeekRecords(id)
	if recs.Content != nil {
		return recs.Content.SizeBytes()
	}
	sizes := make(map[string]int64, len(recs.Columns))
	for _, r := range recs.Columns {
		sizes[r.ID] = r.Size
	}
	var n int64
	for _, colID := range recs.Manifest.ColIDs {
		n += sizes[colID]
	}
	return n
}
