// Package materialize implements the paper's artifact-materialization
// algorithms (§5): the ML-based greedy Algorithm 1, the storage-aware
// meta-algorithm of §5.3, plus the Helix baseline and an ALL strategy used
// in the evaluation.
//
// A Strategy inspects the Experiment Graph and returns the record of one
// run (Run): the vertex IDs whose content should be stored under a byte
// budget, and what it decided for the rest. Raw source artifacts are always
// stored by the updater (§3.2) and are not part of the budgeted selection.
package materialize

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
)

// Strategy selects which artifacts to materialize.
type Strategy interface {
	// Name labels the strategy in experiment output ("HM", "SA", "HL",
	// "ALL").
	Name() string
	// Select decides which vertices to materialize under the budget (in
	// bytes) and returns the record of that run. Budget accounting is
	// strategy-specific: HM and HL count logical artifact sizes, SA counts
	// deduplicated physical bytes. With trail set the record also carries the
	// outcome of every eligible vertex; without it Select builds none.
	Select(g *eg.Graph, budget int64, trail bool) Run
}

// Outcome is what a run decided for one eligible vertex. The values are the
// reason codes explain prints.
type Outcome string

const (
	// Selected: the strategy materializes the artifact.
	Selected Outcome = "selected"
	// Vetoed: rejected by the strategy's own load-cost rule — Cl(v) ≥ Cr(v)
	// for Algorithm 1 (Equation 2's U(v) = 0), Cr(v) ≤ 2·Cl(v) for Helix.
	Vetoed Outcome = "vetoed-load-cost"
	// OverBudget: passed the veto and did not fit — for Helix, also every
	// vertex after the one that stopped its root-first scan.
	OverBudget Outcome = "budget-exhausted"
)

// Decision is one eligible vertex's line of a run's trail.
type Decision struct {
	Vertex  *eg.Vertex
	Outcome Outcome
}

// Run is the record of one materialization run, produced by the strategy in
// the pass that decides: the server applies Selected and counts from it,
// explain renders Trail. Every eligible vertex is selected, vetoed or over
// budget.
type Run struct {
	// Selected holds the vertex IDs to materialize, in the order the
	// strategy admitted them.
	Selected []string
	// Eligible counts the vertices that took part (see eligible), Vetoed
	// those of them the strategy's load-cost rule rejected.
	Eligible, Vetoed int
	// Trail has one Decision per eligible vertex, sorted by ID; nil unless
	// Select was asked for it.
	Trail []Decision
}

// OverBudget counts the eligible vertices that passed the veto and were not
// selected.
func (r Run) OverBudget() int { return r.Eligible - r.Vetoed - len(r.Selected) }

// Config carries the knobs shared by the paper's strategies.
type Config struct {
	// Alpha is the α of Equation 2: the weight of model quality against
	// the weighted cost-size ratio. Default 0.5.
	Alpha float64
	// Profile models the load cost Cl used by the Cl ≥ Cr veto.
	Profile cost.Profile
}

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

// ranked is a candidate as a run holds it: with the index of its line in
// the run's trail (meaningless without a trail), so admitting it marks the
// line without a search.
type ranked struct {
	candidate
	line int
}

// candidates computes Equation 2 utilities for every non-materialized-
// eligible vertex: U(v) = 0 if Cl(v) ≥ Cr(v), else α·p'(v) + (1−α)·r'cs(v)
// with sum-normalized p and rcs, and opens the run's record with what the
// pass saw: the eligible and vetoed counts and, when asked, a trail that
// holds every candidate as over budget until admit selects it. Cr and p are
// read off the vertices, where the graph maintains them; the normalisation
// sums move with every update, so the pass over the vertices (in ID order,
// which fixes the order of the floating-point sums and of the trail) and the
// ranking stay per call.
func (c Config) candidates(g *eg.Graph, trail bool) ([]ranked, Run) {
	vertices := g.Vertices()
	cands := make([]ranked, 0, len(vertices))
	var run Run
	if trail {
		run.Trail = make([]Decision, 0, len(vertices))
	}
	var sumP, sumR float64
	for _, v := range vertices {
		if !eligible(v) {
			continue
		}
		run.Eligible++
		crv := v.RecreationCost()
		vetoed := c.Profile.LoadCost(v.SizeBytes) >= crv
		if trail {
			d := Decision{v, OverBudget}
			if vetoed {
				d.Outcome = Vetoed
			}
			run.Trail = append(run.Trail, d)
		}
		if vetoed {
			run.Vetoed++
			continue // U(v) = 0: loading is no cheaper than recomputing
		}
		sz := v.SizeBytes
		if sz <= 0 {
			sz = 1
		}
		rcs := float64(v.Frequency) * crv.Seconds() / (float64(sz) / (1 << 20)) // s/MB
		p := v.Potential()
		// utility holds p until the sums are known
		cands = append(cands, ranked{candidate{v, p, rcs}, len(run.Trail) - 1})
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
	slices.SortFunc(cands, func(x, y ranked) int {
		if x.utility != y.utility {
			return cmp.Compare(y.utility, x.utility)
		}
		if x.rcs != y.rcs {
			return cmp.Compare(y.rcs, x.rcs)
		}
		return strings.Compare(x.v.ID, y.v.ID)
	})
	return cands, run
}

// admit selects a candidate of the run and marks its line of the trail, when
// there is one.
func (r *Run) admit(c ranked) {
	r.Selected = append(r.Selected, c.v.ID)
	if r.Trail != nil {
		r.Trail[c.line].Outcome = Selected
	}
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
func (m *Greedy) Select(g *eg.Graph, budget int64, trail bool) Run {
	cands, run := m.cfg.candidates(g, trail)
	var used int64
	for _, c := range cands {
		if used+c.v.SizeBytes <= budget {
			run.admit(c)
			used += c.v.SizeBytes
		}
	}
	return run
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
func (m *StorageAware) Select(g *eg.Graph, budget int64, trail bool) Run {
	cands, run := m.cfg.candidates(g, trail)
	selected := make([]bool, len(cands))
	for {
		remaining := budget - g.DedupedSize(run.Selected)
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
				run.admit(c)
				used += c.v.SizeBytes
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return run
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
func (m *Helix) Select(g *eg.Graph, budget int64, trail bool) Run {
	var run Run
	var used int64
	// The scan stops at the first vertex that overflows the budget, so the
	// result depends on which topological order it walks: TopoOrder's, a
	// function of the graph alone, not the graph's merge-history order. Past
	// that vertex the walk only counts: what it never weighed is over budget.
	stopped := false
	for _, id := range g.TopoOrder() {
		v := g.Vertex(id)
		if v == nil || !eligible(v) {
			continue
		}
		run.Eligible++
		outcome := OverBudget
		switch {
		case stopped:
		case v.RecreationCost() <= 2*m.cfg.Profile.LoadCost(v.SizeBytes):
			outcome = Vetoed
			run.Vetoed++
		case used+v.SizeBytes > budget:
			stopped = true // root-first scan stops when the budget is exhausted
		default:
			outcome = Selected
			run.Selected = append(run.Selected, id)
			used += v.SizeBytes
		}
		if trail {
			run.Trail = append(run.Trail, Decision{v, outcome})
		}
	}
	slices.SortFunc(run.Trail, func(x, y Decision) int { return strings.Compare(x.Vertex.ID, y.Vertex.ID) })
	return run
}

// All materializes every eligible artifact regardless of budget (the ALL
// strategy of Figures 6 and 7).
type All struct{}

// NewAll returns the unbounded strategy.
func NewAll() *All { return &All{} }

// Name implements Strategy.
func (m *All) Name() string { return "ALL" }

// Select implements Strategy.
func (m *All) Select(g *eg.Graph, _ int64, trail bool) Run {
	var run Run
	for _, v := range g.Vertices() {
		if !eligible(v) {
			continue
		}
		run.Eligible++
		run.Selected = append(run.Selected, v.ID)
		if trail {
			run.Trail = append(run.Trail, Decision{v, Selected})
		}
	}
	return run
}

// LimitCount decorates a strategy so it materializes at most k artifacts —
// the §7.3 "budget of one artifact" setup that isolates the effect of α.
type LimitCount struct {
	Inner Strategy
	K     int
}

// Name implements Strategy.
func (m LimitCount) Name() string { return m.Inner.Name() }

// Select implements Strategy: what the inner strategy selected past the
// first K is over budget.
func (m LimitCount) Select(g *eg.Graph, budget int64, trail bool) Run {
	run := m.Inner.Select(g, budget, trail)
	if len(run.Selected) <= m.K {
		return run
	}
	dropped := run.Selected[m.K:]
	run.Selected = run.Selected[:m.K]
	for i, d := range run.Trail {
		if slices.Contains(dropped, d.Vertex.ID) {
			run.Trail[i].Outcome = OverBudget
		}
	}
	return run
}
