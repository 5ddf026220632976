// Package materialize implements the paper's artifact-materialization
// algorithms (§5): the ML-based greedy Algorithm 1, the storage-aware
// meta-algorithm of §5.3, plus the Helix baseline and an ALL strategy used
// in the evaluation.
//
// A Strategy inspects the Experiment Graph and returns the record of one
// run (Run): what the selection under a byte budget changes against what is
// materialized and the counts of what it decided, from which the outcome of
// every vertex can be read back (Run.Outcomes); what is materialized is the
// store's to say, as a predicate. Raw source artifacts are always stored by
// the updater (§3.2) and are not part of the budgeted selection.
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
	// deduplicated physical bytes. held, asked once per eligible vertex under
	// the graph's read lock, reports whether its content is stored. The run
	// lives in sc's buffers (nil: buffers of its own).
	Select(g *eg.Graph, held func(id string) bool, budget int64, sc *Scratch) Run
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

// Run is the record of one materialization run, produced by the strategy in
// the pass that decides: the server applies what it changed (Admitted,
// Dropped) and counts from it, explain renders its Outcomes. Every eligible
// vertex is selected, vetoed or over budget.
type Run struct {
	// Admitted holds the selected vertices that were not held when the run
	// read them, in the order the strategy admitted them: what the updater
	// stores or asks for.
	Admitted []string
	// Dropped holds the eligible vertices that were held and are not
	// selected, sorted by ID: what the updater evicts.
	Dropped []string
	// Eligible counts the vertices that took part (see eligible), Vetoed
	// those of them the strategy's load-cost rule rejected, Selected those it
	// selected.
	Eligible, Vetoed, Selected int

	// selected lists the selection in admission order, when the run built
	// the list; when every candidate fit, unranked holds them instead, for
	// SelectedIDs to rank. vetoed lists the vertices the load-cost rule
	// rejected.
	selected, vetoed []string
	unranked         []ranked
}

// OverBudget counts the eligible vertices that passed the veto and were not
// selected.
func (r Run) OverBudget() int { return r.Eligible - r.Vetoed - r.Selected }

// SelectedIDs returns the IDs of the selected vertices in the order the
// strategy admitted them. The updater needs only what changed; a run in which
// every candidate fit ranks them here, for the readers that ask (LimitCount,
// explain and tests), not in Select.
func (r Run) SelectedIDs() []string {
	if r.unranked == nil {
		return r.selected
	}
	ranking := slices.Clone(r.unranked)
	rank(ranking)
	ids := make([]string, len(ranking))
	for i, c := range ranking {
		ids[i] = c.v.ID
	}
	return ids
}

// Outcomes calls f with every eligible vertex of g, in ID order, and what the
// run decided for it: selected if the run selected it, vetoed if the
// strategy's load-cost rule rejected it, over budget otherwise; and whether
// its content was held when the run read it, which the run says by dropping
// it, or by selecting it without admitting it. It reads the graph as it is
// when called — after a prune, the vertices the graph still holds — and the
// run's lists, so it is valid as long as the run is.
func (r Run) Outcomes(g *eg.Graph, f func(v *eg.Vertex, o Outcome, held bool)) {
	selected, vetoed := idSet(r.SelectedIDs()), idSet(r.vetoed)
	admitted, dropped := idSet(r.Admitted), idSet(r.Dropped)
	g.Visit(func(v *eg.Vertex) {
		if !eligible(v) {
			return
		}
		o := OverBudget
		switch {
		case selected[v.ID]:
			o = Selected
		case vetoed[v.ID]:
			o = Vetoed
		}
		f(v, o, dropped[v.ID] || o == Selected && !admitted[v.ID])
	})
}

func idSet(ids []string) map[string]bool {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// Scratch holds the buffers of a run between runs. The updater keeps one
// under its lock, so that a run whose candidates all fit allocates nothing. A
// Run, SelectedIDs included, is valid until the next Select with the Scratch
// it was selected with.
type Scratch struct {
	cands                               []ranked
	selected, vetoed, admitted, dropped []string
}

// open starts a run in sc's buffers (none for a nil sc).
func (sc *Scratch) open() Run {
	if sc == nil {
		return Run{}
	}
	return Run{Admitted: sc.admitted[:0], Dropped: sc.dropped[:0], selected: sc.selected[:0], vetoed: sc.vetoed[:0]}
}

// keep hands the buffers the run grew back to sc, for the next run.
func (sc *Scratch) keep(r *Run, cands []ranked) {
	if sc == nil {
		return
	}
	sc.admitted, sc.dropped, sc.selected, sc.vetoed = r.Admitted, r.Dropped, r.selected, r.vetoed
	if cands != nil {
		sc.cands = cands
	}
}

// Config carries the knobs shared by the paper's strategies.
type Config struct {
	// Alpha is the α of Equation 2, in [0, 1]: the weight of model quality
	// against the weighted cost-size ratio. 0 weighs the ratio alone.
	Alpha float64
	// Profile models the load cost Cl used by the Cl ≥ Cr veto.
	Profile cost.Profile
}

func (c Config) alpha() float64 { return c.Alpha }

// candidate pairs a vertex with its utility and (tie-break) cost-size
// ratio.
type candidate struct {
	v       *eg.Vertex
	utility float64
	rcs     float64
}

// ranked is a candidate as a run holds it: with whether its content was
// held when the run read it, and whether the run selected it.
type ranked struct {
	candidate
	held, selected bool
}

// rank sorts candidates highest utility first. Ties (common at α=1, where
// every ancestor of the best model shares its potential) fall back to the
// cost-size ratio, which favours the model artifact itself, then to ID for
// determinism — a total order, so any subset ranks as it does in the whole.
func rank(cands []ranked) {
	slices.SortFunc(cands, func(x, y ranked) int {
		if x.utility != y.utility {
			return cmp.Compare(y.utility, x.utility)
		}
		if x.rcs != y.rcs {
			return cmp.Compare(y.rcs, x.rcs)
		}
		return strings.Compare(x.v.ID, y.v.ID)
	})
}

// candidates computes Equation 2 utilities for every eligible vertex: U(v) =
// 0 if Cl(v) ≥ Cr(v), else α·p'(v) + (1−α)·r'cs(v) with sum-normalized p and
// rcs, and opens the run's record with what the pass saw: the eligible and
// vetoed counts, the vetoed vertices, and those of them that are held
// (Dropped). Cr and p are read off the vertices, where the graph maintains
// them, and whether a vertex is held is asked once, here; the normalisation
// sums move with every update, so the pass over the vertices stays per call:
// one walk in ID order (which fixes the order of the floating-point sums)
// through the graph's visitor, in sc's buffers.
//
// When the candidates' logical bytes fit a positive budget, Algorithm 1
// admits all of them in its first round and the storage-aware second round
// finds none left, so candidates completes the run itself and reports fit:
// every candidate is selected, and only the ones to admit are ranked, among
// themselves. Otherwise it returns the candidates ranked, for the strategy's
// fill and settle.
func (c Config) candidates(g *eg.Graph, held func(string) bool, budget int64, sc *Scratch) (cands []ranked, run Run, fit bool) {
	run = sc.open()
	if sc != nil {
		cands = sc.cands[:0]
	}
	var sumP, sumR float64
	var logical int64
	fit = budget > 0
	g.Visit(func(v *eg.Vertex) {
		if !eligible(v) {
			return
		}
		run.Eligible++
		crv := v.RecreationCost()
		vetoed := c.Profile.LoadCost(v.SizeBytes) >= crv
		stored := held(v.ID)
		if vetoed {
			run.Vetoed++
			run.vetoed = append(run.vetoed, v.ID)
			if stored {
				run.Dropped = append(run.Dropped, v.ID)
			}
			return // U(v) = 0: loading is no cheaper than recomputing
		}
		if v.SizeBytes < 0 {
			fit = false // a greedy fill could then reject a prefix the total admits
		}
		logical += v.SizeBytes
		sz := v.SizeBytes
		if sz <= 0 {
			sz = 1
		}
		rcs := float64(v.Frequency) * crv.Seconds() / (float64(sz) / (1 << 20)) // s/MB
		p := v.Potential()
		// utility holds p until the sums are known
		cands = append(cands, ranked{candidate{v, p, rcs}, stored, false})
		sumP += p
		sumR += rcs
	})
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
	if !fit || logical > budget {
		rank(cands)
		return cands, run, false
	}
	run.Selected = len(cands)
	admit := 0
	for i := range cands {
		if !cands[i].held {
			cands[admit], cands[i] = cands[i], cands[admit]
			admit++
		}
	}
	rank(cands[:admit])
	for _, c := range cands[:admit] {
		run.Admitted = append(run.Admitted, c.v.ID)
	}
	run.unranked = cands
	return cands, run, true
}

// admit selects a candidate of the run.
func (r *Run) admit(c *ranked) {
	c.selected = true
	r.Selected++
	r.selected = append(r.selected, c.v.ID)
	if !c.held {
		r.Admitted = append(r.Admitted, c.v.ID)
	}
}

// settle completes a run whose fill admitted through admit: the held
// candidates it left out join the vetoed ones in Dropped, in ID order.
func (r *Run) settle(cands []ranked) {
	for _, c := range cands {
		if c.held && !c.selected {
			r.Dropped = append(r.Dropped, c.v.ID)
		}
	}
	slices.Sort(r.Dropped)
}

// eligible reports whether a vertex participates in budgeted
// materialization: supernodes carry no data, external artifacts may not be
// stored (§4.2), and sources are stored unconditionally by the updater.
func eligible(v *eg.Vertex) bool {
	return v.Kind != graph.SupernodeKind && !v.External && !v.IsSource()
}

// Keeps reports whether the updater keeps stored content for the vertex:
// sources always, other vertices when eligible for selection. Content stored
// for any other vertex is evicted.
func Keeps(v *eg.Vertex) bool { return v.IsSource() || eligible(v) }

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
func (m *Greedy) Select(g *eg.Graph, held func(string) bool, budget int64, sc *Scratch) Run {
	cands, run, fit := m.cfg.candidates(g, held, budget, sc)
	if !fit {
		var used int64
		for i := range cands {
			if c := &cands[i]; used+c.v.SizeBytes <= budget {
				run.admit(c)
				used += c.v.SizeBytes
			}
		}
		run.settle(cands)
	}
	sc.keep(&run, cands)
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
func (m *StorageAware) Select(g *eg.Graph, held func(string) bool, budget int64, sc *Scratch) Run {
	cands, run, fit := m.cfg.candidates(g, held, budget, sc)
	for !fit {
		remaining := budget - g.DedupedSize(run.selected)
		if remaining <= 0 {
			break
		}
		added := 0
		var used int64
		for i := range cands {
			c := &cands[i]
			if c.selected {
				continue
			}
			if used+c.v.SizeBytes <= remaining {
				run.admit(c)
				used += c.v.SizeBytes
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	if !fit {
		run.settle(cands)
	}
	sc.keep(&run, cands)
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
func (m *Helix) Select(g *eg.Graph, held func(string) bool, budget int64, sc *Scratch) Run {
	run := sc.open()
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
		stored := held(id)
		selected := false
		switch {
		case stopped:
		case v.RecreationCost() <= 2*m.cfg.Profile.LoadCost(v.SizeBytes):
			run.Vetoed++
			run.vetoed = append(run.vetoed, id)
		case used+v.SizeBytes > budget:
			stopped = true // root-first scan stops when the budget is exhausted
		default:
			selected = true
			run.admit(&ranked{candidate: candidate{v: v}, held: stored})
			used += v.SizeBytes
		}
		if !selected && stored {
			run.Dropped = append(run.Dropped, id)
		}
	}
	slices.Sort(run.Dropped)
	sc.keep(&run, nil)
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
func (m *All) Select(g *eg.Graph, held func(string) bool, _ int64, sc *Scratch) Run {
	run := sc.open()
	g.Visit(func(v *eg.Vertex) {
		if !eligible(v) {
			return
		}
		run.Eligible++
		run.admit(&ranked{candidate: candidate{v: v}, held: held(v.ID)})
	})
	sc.keep(&run, nil)
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
// first K is over budget — no longer admitted, and dropped where it is
// held.
func (m LimitCount) Select(g *eg.Graph, held func(string) bool, budget int64, sc *Scratch) Run {
	run := m.Inner.Select(g, held, budget, sc)
	if run.Selected <= m.K {
		return run
	}
	ids := run.SelectedIDs()
	over := make(map[string]bool, len(ids)-m.K)
	for _, id := range ids[m.K:] {
		over[id] = true
		if held(id) {
			run.Dropped = append(run.Dropped, id)
		}
	}
	slices.Sort(run.Dropped)
	run.Admitted = slices.DeleteFunc(run.Admitted, func(id string) bool { return over[id] })
	run.selected, run.unranked, run.Selected = ids[:m.K], nil, m.K
	return run
}
