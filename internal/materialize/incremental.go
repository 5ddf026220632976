package materialize

import (
	"sort"

	"repro/internal/eg"
)

// Incremental implements the §5.2 run-time optimization of Algorithm 1:
// "we only need to compute the utility for a subset of the vertices ...
// the vertices belonging to the new workload ... and the materialized
// vertices", giving per-update complexity O(|W| + |M|) instead of O(|V|).
//
// Per-vertex cost-size ratios and potentials are cached; an update
// refreshes them only for the touched (workload) vertices — from the
// recreation cost the graph maintains and the children's cached potentials
// — and for the currently materialized set. Statistics of untouched,
// unmaterialized vertices may go stale, which is the approximation the
// paper accepts in exchange for constant-time updates.
//
// Incremental satisfies Strategy (falling back to a full pass when no
// workload context is supplied) and IncrementalStrategy (the fast path the
// server's updater uses).
type Incremental struct {
	cfg Config

	stats      map[string]*rawStat
	sumP, sumR float64
	// selection is the last materialization decision; it seeds the
	// candidate pool of the next run.
	selection []string
}

// rawStat is what a vertex contributed to the cached normalisation sums
// when it was last in the pool. p is not the graph's p(v): it is masked by
// the veto (a vetoed vertex holds 0 and lifts no ancestor) and propagates
// within the pool only, so it stays here beside the sum it is part of.
type rawStat struct {
	p      float64 // potential
	rcs    float64 // weighted cost-size ratio
	size   int64
	vetoed bool // Cl >= Cr
}

// NewIncremental returns the incremental variant of Algorithm 1.
func NewIncremental(cfg Config) *Incremental {
	return &Incremental{cfg: cfg, stats: make(map[string]*rawStat)}
}

// Name implements Strategy.
func (m *Incremental) Name() string { return "HM-inc" }

// Select implements Strategy with a full refresh (used when the caller has
// no workload context, e.g. at server restore time).
func (m *Incremental) Select(g *eg.Graph, budget int64) []string {
	var all []string
	for _, v := range g.Vertices() {
		all = append(all, v.ID)
	}
	return m.SelectIncremental(g, budget, all)
}

// SelectIncremental implements IncrementalStrategy: refresh statistics for
// the touched vertices plus the current materialized selection, then run
// the greedy choice over that candidate pool only.
func (m *Incremental) SelectIncremental(g *eg.Graph, budget int64, touched []string) []string {
	pool := make(map[string]bool, len(touched)+len(m.selection))
	for _, id := range touched {
		pool[id] = true
	}
	for _, id := range m.selection {
		pool[id] = true
	}
	ordered := g.TopoOrderOf(poolKeys(pool))
	for _, id := range ordered {
		m.refresh(g, id)
	}
	// Potentials flow upstream: refresh again in reverse topological order
	// (restricted to pool members) so a new high-quality model lifts its
	// in-pool ancestors.
	for i := len(ordered) - 1; i >= 0; i-- {
		m.refreshPotential(g, ordered[i])
	}

	// Greedy over the pool with globally cached normalization sums.
	type cand struct {
		id   string
		u    float64
		rcs  float64
		size int64
	}
	var cands []cand
	a := m.cfg.alpha()
	for id := range pool {
		st, ok := m.stats[id]
		if !ok || st.vetoed {
			continue
		}
		var u float64
		if m.sumP > 0 {
			u += a * st.p / m.sumP
		}
		if m.sumR > 0 {
			u += (1 - a) * st.rcs / m.sumR
		}
		cands = append(cands, cand{id, u, st.rcs, st.size})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].u != cands[j].u {
			return cands[i].u > cands[j].u
		}
		if cands[i].rcs != cands[j].rcs {
			return cands[i].rcs > cands[j].rcs
		}
		return cands[i].id < cands[j].id
	})
	var out []string
	var used int64
	for _, c := range cands {
		if used+c.size <= budget {
			out = append(out, c.id)
			used += c.size
		}
	}
	m.selection = out
	return out
}

// refresh recomputes a vertex's cost-size ratio and veto from the
// recreation cost the graph maintains.
func (m *Incremental) refresh(g *eg.Graph, id string) {
	v := g.Vertex(id)
	if v == nil {
		delete(m.stats, id)
		return
	}
	st, ok := m.stats[id]
	if !ok {
		st = &rawStat{}
		m.stats[id] = st
	} else {
		m.sumP -= st.p
		m.sumR -= st.rcs
	}
	cr := v.RecreationCost()
	st.size = v.SizeBytes
	if !eligible(v) {
		st.vetoed = true
		st.p, st.rcs = 0, 0
		return
	}
	m.cfg.Metrics.considered().Inc()
	cl := m.cfg.Profile.LoadCost(v.SizeBytes)
	st.vetoed = !m.cfg.DisableLoadCostVeto && cl >= cr
	if st.vetoed {
		m.cfg.Metrics.vetoed().Inc()
	}
	sz := v.SizeBytes
	if sz <= 0 {
		sz = 1
	}
	st.rcs = float64(v.Frequency) * cr.Seconds() / (float64(sz) / (1 << 20))
	st.p = v.Quality // refined by refreshPotential
	if st.vetoed {
		st.p, st.rcs = 0, 0
		return
	}
	m.sumP += st.p
	m.sumR += st.rcs
}

// refreshPotential lifts a vertex's potential to the max of its own
// quality and its children's cached potentials.
func (m *Incremental) refreshPotential(g *eg.Graph, id string) {
	v := g.Vertex(id)
	st, ok := m.stats[id]
	if v == nil || !ok || st.vetoed {
		return
	}
	p := v.Quality
	for _, c := range v.Children {
		if cs, ok := m.stats[c]; ok && cs.p > p {
			p = cs.p
		}
	}
	if p != st.p {
		m.sumP += p - st.p
		st.p = p
	}
}

func poolKeys(pool map[string]bool) []string {
	out := make([]string, 0, len(pool))
	for id := range pool {
		out = append(out, id)
	}
	return out
}

// IncrementalStrategy is the optional fast path of §5.2: strategies that
// can update their decision from the touched vertex set alone.
type IncrementalStrategy interface {
	Strategy
	SelectIncremental(g *eg.Graph, budget int64, touched []string) []string
}
