package remote

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

// planLoss is an Optimizer whose plans it records, and that hands each to
// lose, when set, as soon as it is made: the store loses what the plan loads
// between optimize and fetch.
type planLoss struct {
	core.Optimizer
	lose  func(loads map[string]bool)
	loads map[string]bool
}

func (p *planLoss) Optimize(w *graph.DAG, req *obs.Request) *core.Optimization {
	opt := p.Optimizer.Optimize(w, req)
	if opt != nil && opt.Plan != nil {
		for id := range opt.Plan.Reuse {
			p.loads[id] = true
		}
		if p.lose != nil {
			p.lose(opt.Plan.Reuse)
		}
	}
	return opt
}

// evictAll evicts every planned load: the race in which another
// collaborator's update evicts under a binding budget.
func evictAll(m *store.Manager) func(map[string]bool) {
	return func(loads map[string]bool) {
		for id := range loads {
			m.Evict(id)
		}
	}
}

// corruptAll flips a byte in the middle of every file of a disk tier's
// columns and blobs: bit rot the next read finds.
func corruptAll(t *testing.T, dir string) func(map[string]bool) {
	return func(map[string]bool) {
		for _, sub := range []string{"cols", "blobs"} {
			paths, err := filepath.Glob(filepath.Join(dir, sub, "*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x40
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// failFirstDownload answers the first GET /v1/artifact 500 when armed and
// hands every other request on.
type failFirstDownload struct {
	next   http.Handler
	armed  atomic.Bool
	failed atomic.Bool
}

func (f *failFirstDownload) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/artifact" && f.armed.Load() && f.failed.CompareAndSwap(false, true) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	f.next.ServeHTTP(w, r)
}

// TestAPlannedLoadThatMissesIsComputed runs Table-1 W1 on a server that
// holds it from an earlier run, and takes away what the plan loads: every
// planned artifact evicted right after the optimize, in process and over
// HTTP, every file of a disk tier corrupted, or one download answered 500.
// The run computes what it could not load and its terminals equal the naive
// run's; a vertex it computed goes to the update as computed — not loaded,
// with no fetch time, tier or predicted load.
func TestAPlannedLoadThatMissesIsComputed(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	w1 := kaggle.AllWorkloads()[0]
	naive := w1.Build(src)
	if _, err := core.NewClient(core.NewServer(store.New(cost.Memory()),
		core.WithPlanner(reuse.AllCompute{}), core.WithBudget(0))).Run(naive); err != nil {
		t.Fatal(err)
	}
	all := func(loads int) int { return loads }
	evict := func(st *store.Manager, _ string) func(map[string]bool) { return evictAll(st) }
	corrupt := func(_ *store.Manager, dir string) func(map[string]bool) { return corruptAll(t, dir) }
	for _, arm := range []struct {
		name       string
		http       bool
		onDisk     bool
		lose       func(st *store.Manager, diskDir string) func(map[string]bool)
		failFetch  bool
		recomputes func(loads int) int
	}{
		{"in process, every load evicted", false, false, evict, false, all},
		{"over HTTP, every load evicted", true, false, evict, false, all},
		{"in process, every disk-tier file corrupted", false, true, corrupt, false, all},
		{"over HTTP, one download answered 500", true, false, nil, true, func(int) int { return 1 }},
	} {
		st, diskDir := store.New(cost.Memory()), ""
		if arm.onDisk {
			diskDir = t.TempDir()
			d, _, err := tier.Open(diskDir)
			if err != nil {
				t.Fatal(err)
			}
			st = store.NewTiered(cost.Memory(), store.Options{Disk: d})
		}
		srv := core.NewServer(st, core.WithBudget(1<<30))
		var first, second core.Optimizer = srv, srv
		h := &failFirstDownload{next: NewHandler(srv)}
		if arm.http {
			ts := httptest.NewServer(h)
			defer ts.Close()
			rc := NewClient(ts.URL, cost.Memory())
			first, second = rc, anotherClient(rc)
		}
		if _, err := core.NewClient(first).Run(w1.Build(src)); err != nil {
			t.Fatalf("%s: the first run: %v", arm.name, err)
		}
		if arm.onDisk {
			for _, id := range srv.Store.StoredIDs() {
				if err := srv.Store.Demote(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.armed.Store(arm.failFetch)
		loss := &planLoss{Optimizer: second, loads: map[string]bool{}}
		if arm.lose != nil {
			loss.lose = arm.lose(srv.Store, diskDir)
		}
		dag := w1.Build(src)
		res, err := core.NewClient(loss).Run(dag)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if len(loss.loads) == 0 {
			t.Fatalf("%s: the plan loads nothing: the run does not exercise a miss", arm.name)
		}
		if arm.failFetch && !h.failed.Load() {
			t.Errorf("%s: no download was answered 500", arm.name)
		}
		computed := 0
		for id := range loss.loads {
			n := dag.Node(id)
			if n.LoadedFromEG {
				continue
			}
			computed++
			if n.FetchTime != 0 || n.FetchTier != "" || n.PredictedLoad != 0 || n.Content == nil {
				t.Errorf("%s: %s was computed, yet carries fetch time %v, tier %q, predicted load %v",
					arm.name, n.Name, n.FetchTime, n.FetchTier, n.PredictedLoad)
			}
		}
		if want := arm.recomputes(len(loss.loads)); computed != want || res.Reused != len(loss.loads)-want {
			t.Errorf("%s: %d of %d planned loads computed and %d reused, want %d computed", arm.name, computed, len(loss.loads), res.Reused, want)
		}
		for _, n := range naive.Terminals() {
			if got := dag.Node(n.ID); got == nil || !sameBits(got.Content, n.Content) {
				t.Errorf("%s: terminal %s differs from the naive run's", arm.name, n.Name)
			}
		}
		// The download that failed was recovered: the run is correct, so
		// the client reports no error for it.
		if rc, ok := second.(*Client); ok {
			if err := rc.Err(); err != nil {
				t.Errorf("%s: a correct run leaves the client's error %v", arm.name, err)
			}
		}
	}
}
