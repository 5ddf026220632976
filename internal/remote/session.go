package remote

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// SetSessionBudget replaces the session store with an empty one bounded to
// budget deduplicated bytes; 0 switches it off, and every run then fetches
// what its plan loads. Call it before the first run: what the previous
// store held is dropped.
func (c *Client) SetSessionBudget(budget int64) {
	var held *store.Manager
	var met store.Metrics
	if budget > 0 {
		held = store.NewTiered(cost.Memory(), store.Options{MemoryBudget: budget})
		met = store.Metrics{GetHits: new(obs.Counter), GetMisses: new(obs.Counter), Evictions: new(obs.Counter)}
		held.Instrument(met)
	}
	c.mu.Lock()
	c.session, c.sessionMet = held, met
	c.mu.Unlock()
}

func (c *Client) sessionStore() *store.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// SessionStats describes the session store. Misses are downloads; a client
// whose runs keep fetching the same artifacts shows misses and evictions
// growing together — the budget is thrashing.
type SessionStats struct {
	// Hits counts vertices satisfied from the session, Misses lookups that
	// went to the server, Evictions artifacts pushed out by the budget.
	Hits, Misses, Evictions int64
	// Held is the number of artifacts held now, Bytes their size with
	// shared columns counted once.
	Held  int
	Bytes int64
}

// SessionStats reports the session store's counters; all zero when it is
// switched off.
func (c *Client) SessionStats() SessionStats {
	c.mu.Lock()
	held, met := c.session, c.sessionMet
	c.mu.Unlock()
	if held == nil {
		return SessionStats{}
	}
	return SessionStats{
		Hits:      met.GetHits.Value(),
		Misses:    met.GetMisses.Value(),
		Evictions: met.Evictions.Value(),
		Held:      held.Len(),
		Bytes:     held.MemoryBytes(),
	}
}

// installHeld is the local pruner across runs: walking up from the
// terminals, the first vertex on each path that the session store holds gets
// the held content and the walk stops there, as it does at content the DAG
// already carries. An installed vertex is Computed, so the server prices it
// at zero and plans no load above it and the executor starts from it. It was
// obtained, not computed: LoadedFromEG with tier core.SessionTier and no
// fetch or compute time, which is what the server's reuse accounting and
// callers that ask "trained in this run?" read.
func (c *Client) installHeld(w *graph.DAG) {
	held := c.sessionStore()
	if held == nil {
		return
	}
	graph.Walk(w.Terminals(), make(map[string]bool, w.Len()), func(n *graph.Node) bool {
		if n.Content != nil {
			return false
		}
		// Has first: a vertex that was never held is not a miss.
		var a graph.Artifact
		if held.Has(n.ID) {
			a, _ = held.Get(n.ID)
		}
		if a == nil {
			return true
		}
		n.Content = a
		n.Computed = true
		n.SizeBytes = a.SizeBytes()
		if ma, ok := a.(*graph.ModelArtifact); ok {
			n.Quality = ma.Quality
		}
		n.LoadedFromEG = true
		n.FetchTier = core.SessionTier
		return false
	})
}

// holdContent puts every derived vertex of an executed DAG that carries
// content into the session store; what is already held stays as it is.
// Sources are the caller's own data and come with every DAG.
func (c *Client) holdContent(executed *graph.DAG) {
	held := c.sessionStore()
	if held == nil {
		return
	}
	for _, n := range executed.Nodes() {
		if n.Content != nil && !n.IsSource() {
			_ = held.Put(n.ID, n.Content) // a refused frame is simply not held
		}
	}
}
