// Package materialize implements the paper's artifact-materialization
// algorithms (§5): the ML-based greedy Algorithm 1, the storage-aware
// meta-algorithm of §5.3, plus the Helix baseline and an ALL strategy used
// in the evaluation.
//
// A Strategy inspects the Experiment Graph and returns the set of vertex
// IDs whose content should be stored under a byte budget. Raw source
// artifacts are always stored by the updater (§3.2) and are not part of
// the budgeted selection.
package materialize

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Strategy selects which artifacts to materialize.
type Strategy interface {
	// Name labels the strategy in experiment output ("HM", "SA", "HL",
	// "ALL").
	Name() string
	// Select returns the vertex IDs to materialize under the budget (in
	// bytes). Budget accounting is strategy-specific: HM and HL count
	// logical artifact sizes, SA counts deduplicated physical bytes.
	Select(g *eg.Graph, budget int64) []string
}

// Config carries the knobs shared by the paper's strategies.
type Config struct {
	// Alpha is the α of Equation 2: the weight of model quality against
	// the weighted cost-size ratio. Default 0.5.
	Alpha float64
	// Profile models the load cost Cl used by the Cl ≥ Cr veto.
	Profile cost.Profile
	// DisableLoadCostVeto turns off the "never materialize when loading
	// is no cheaper than recomputing" rule, for ablation studies.
	DisableLoadCostVeto bool
	// Metrics holds optional decision counters (nil disables counting;
	// all instruments are nil-safe, see internal/obs).
	Metrics *Metrics
}

// Metrics counts materialization decisions for observability.
type Metrics struct {
	// Considered counts eligible candidates scored by utility.
	Considered *obs.Counter
	// Vetoed counts candidates rejected by the Cl >= Cr load-cost veto
	// (for Helix, its Cr <= 2*Cl analogue).
	Vetoed *obs.Counter
}

func (m *Metrics) considered() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Considered
}

func (m *Metrics) vetoed() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Vetoed
}

// Instrumentable is implemented by strategies that accept decision
// counters after construction; the server wires its registry through it.
type Instrumentable interface {
	Instrument(*Metrics)
}

// Instrument implements Instrumentable.
func (m *Greedy) Instrument(met *Metrics) { m.cfg.Metrics = met }

// Instrument implements Instrumentable.
func (m *StorageAware) Instrument(met *Metrics) { m.cfg.Metrics = met }

// Instrument implements Instrumentable.
func (m *Helix) Instrument(met *Metrics) { m.cfg.Metrics = met }

// Instrument implements Instrumentable.
func (m *Incremental) Instrument(met *Metrics) { m.cfg.Metrics = met }

func (c Config) alpha() float64 {
	if c.Alpha == 0 {
		return 0.5
	}
	return c.Alpha
}

// candidate pairs a vertex with its utility and (tie-break) cost-size
// ratio.
type candidate struct {
	v       *eg.Vertex
	utility float64
	rcs     float64
}

// candidates computes Equation 2 utilities for every non-materialized-
// eligible vertex: U(v) = 0 if Cl(v) ≥ Cr(v), else α·p'(v) + (1−α)·r'cs(v)
// with sum-normalized p and rcs. Cr and p are read off the vertices, where
// the graph maintains them; the normalisation sums move with every update,
// so the pass over the vertices (in ID order, which fixes the order of the
// floating-point sums) and the ranking stay per call.
func (c Config) candidates(g *eg.Graph) []candidate {
	vertices := g.Vertices()
	cands := make([]candidate, 0, len(vertices))
	var sumP, sumR float64
	for _, v := range vertices {
		if !eligible(v) {
			continue
		}
		c.Metrics.considered().Inc()
		crv := v.RecreationCost()
		cl := c.Profile.LoadCost(v.SizeBytes)
		if !c.DisableLoadCostVeto && cl >= crv {
			c.Metrics.vetoed().Inc()
			continue // U(v) = 0: loading is no cheaper than recomputing
		}
		sz := v.SizeBytes
		if sz <= 0 {
			sz = 1
		}
		rcs := float64(v.Frequency) * crv.Seconds() / (float64(sz) / (1 << 20)) // s/MB
		p := v.Potential()
		cands = append(cands, candidate{v, p, rcs}) // utility holds p until the sums are known
		sumP += p
		sumR += rcs
	}
	a := c.alpha()
	for i := range cands {
		p, r := cands[i].utility, cands[i].rcs
		var u float64
		if sumP > 0 {
			u += a * p / sumP
		}
		if sumR > 0 {
			u += (1 - a) * r / sumR
		}
		cands[i].utility = u
	}
	// Highest utility first. Ties (common at α=1, where every ancestor of
	// the best model shares its potential) fall back to the cost-size
	// ratio, which favours the model artifact itself, then to ID for
	// determinism.
	slices.SortFunc(cands, func(x, y candidate) int {
		if x.utility != y.utility {
			return cmp.Compare(y.utility, x.utility)
		}
		if x.rcs != y.rcs {
			return cmp.Compare(y.rcs, x.rcs)
		}
		return strings.Compare(x.v.ID, y.v.ID)
	})
	return cands
}

// eligible reports whether a vertex participates in budgeted
// materialization: supernodes carry no data, external artifacts may not be
// stored (§4.2), and sources are stored unconditionally by the updater.
func eligible(v *eg.Vertex) bool {
	return v.Kind != graph.SupernodeKind && !v.External && !v.IsSource()
}

// Greedy is Algorithm 1: pop vertices by descending utility until the
// budget is exhausted. Budget accounting uses logical artifact sizes (no
// deduplication) — the paper's heuristics-based "HM" strategy.
type Greedy struct {
	cfg Config
}

// NewGreedy returns the heuristics-based strategy (Algorithm 1).
func NewGreedy(cfg Config) *Greedy { return &Greedy{cfg: cfg} }

// Name implements Strategy.
func (m *Greedy) Name() string { return "HM" }

// Select implements Strategy.
func (m *Greedy) Select(g *eg.Graph, budget int64) []string {
	var out []string
	var used int64
	for _, c := range m.cfg.candidates(g) {
		if used+c.v.SizeBytes <= budget {
			out = append(out, c.v.ID)
			used += c.v.SizeBytes
		}
	}
	return out
}

// StorageAware is the §5.3 meta-algorithm: repeatedly run Algorithm 1 with
// the remaining budget, then recompute the remaining budget under column
// deduplication, until no new vertices are added or the budget is gone.
type StorageAware struct {
	cfg Config
}

// NewStorageAware returns the storage-aware strategy ("SA").
func NewStorageAware(cfg Config) *StorageAware { return &StorageAware{cfg: cfg} }

// Name implements Strategy.
func (m *StorageAware) Name() string { return "SA" }

// Select implements Strategy.
func (m *StorageAware) Select(g *eg.Graph, budget int64) []string {
	cands := m.cfg.candidates(g)
	selected := make([]bool, len(cands))
	var order []string
	for {
		remaining := budget - g.DedupedSize(order)
		if remaining <= 0 {
			break
		}
		added := 0
		var used int64
		for i, c := range cands {
			if selected[i] {
				continue
			}
			if used+c.v.SizeBytes <= remaining {
				selected[i] = true
				order = append(order, c.v.ID)
				used += c.v.SizeBytes
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return order
}

// Helix is the baseline materializer of the Helix system as described in
// §7.1: an artifact is materialized when its recreation cost exceeds twice
// its load cost, scanning from the root (sources) downward until the budget
// is exhausted, with no utility-based prioritization and no deduplication.
type Helix struct {
	cfg Config
}

// NewHelix returns the Helix baseline strategy ("HL").
func NewHelix(cfg Config) *Helix { return &Helix{cfg: cfg} }

// Name implements Strategy.
func (m *Helix) Name() string { return "HL" }

// Select implements Strategy.
func (m *Helix) Select(g *eg.Graph, budget int64) []string {
	var out []string
	var used int64
	// The scan stops at the first vertex that overflows the budget, so the
	// result depends on which topological order it walks: TopoOrder's, a
	// function of the graph alone, not the graph's merge-history order.
	for _, id := range g.TopoOrder() {
		v := g.Vertex(id)
		if v == nil || !eligible(v) {
			continue
		}
		m.cfg.Metrics.considered().Inc()
		cl := m.cfg.Profile.LoadCost(v.SizeBytes)
		if v.RecreationCost() <= 2*cl {
			m.cfg.Metrics.vetoed().Inc()
			continue
		}
		if used+v.SizeBytes > budget {
			break // root-first scan stops when the budget is exhausted
		}
		out = append(out, id)
		used += v.SizeBytes
	}
	return out
}

// All materializes every eligible artifact regardless of budget (the ALL
// strategy of Figures 6 and 7).
type All struct{}

// NewAll returns the unbounded strategy.
func NewAll() *All { return &All{} }

// Name implements Strategy.
func (m *All) Name() string { return "ALL" }

// Select implements Strategy.
func (m *All) Select(g *eg.Graph, _ int64) []string {
	var out []string
	for _, v := range g.Vertices() {
		if eligible(v) {
			out = append(out, v.ID)
		}
	}
	return out
}

// LoadCostVetoed reports whether Algorithm 1 would veto materializing the
// vertex because Cl(v) ≥ Cr(v). Exposed for tests and diagnostics.
func LoadCostVetoed(cfg Config, g *eg.Graph, id string) bool {
	v := g.Vertex(id)
	return v != nil && cfg.Profile.LoadCost(v.SizeBytes) >= v.RecreationCost()
}

// LimitCount decorates a strategy so it materializes at most k artifacts —
// the §7.3 "budget of one artifact" setup that isolates the effect of α.
type LimitCount struct {
	Inner Strategy
	K     int
}

// Name implements Strategy.
func (m LimitCount) Name() string { return m.Inner.Name() }

// Select implements Strategy.
func (m LimitCount) Select(g *eg.Graph, budget int64) []string {
	sel := m.Inner.Select(g, budget)
	if len(sel) > m.K {
		sel = sel[:m.K]
	}
	return sel
}

// BudgetFromArtifactCount is a helper for the Figure 8(b) ablation where
// the budget is "one artifact" (§7.3): it returns the largest eligible
// artifact size times count, so with count=1 the materializer can admit
// exactly one artifact at a time.
func BudgetFromArtifactCount(g *eg.Graph, count int) int64 {
	var max int64
	for _, v := range g.Vertices() {
		if eligible(v) && v.SizeBytes > max {
			max = v.SizeBytes
		}
	}
	return max * int64(count)
}
