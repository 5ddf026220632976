// Package reuse implements the paper's reuse planners (§6): the linear-time
// forward/backward-pass algorithm (Algorithm 2 plus backward pruning), the
// Helix polynomial-time max-flow baseline, and the ALL_M / ALL_C baselines
// of §7.4, together with warmstart candidate search (§6.2).
package reuse

import (
	"math"

	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/store"
)

// Costs holds the per-vertex inputs of the reuse decision for one workload
// DAG, in seconds. Infinite values follow §6.1: Cl=∞ for unmaterialized or
// unknown artifacts, Ci=∞ for artifacts EG has never seen, Ci=0 for
// vertices already computed on the client.
type Costs struct {
	Compute map[string]float64 // Ci(v)
	Load    map[string]float64 // Cl(v)
}

// GatherCosts derives Costs for a workload DAG from the Experiment Graph
// and the storage manager.
func GatherCosts(w *graph.DAG, g *eg.Graph, st *store.Manager) Costs {
	c := Costs{
		Compute: make(map[string]float64, w.Len()),
		Load:    make(map[string]float64, w.Len()),
	}
	for _, n := range w.Nodes() {
		ci := math.Inf(1)
		cl := math.Inf(1)
		if n.Computed {
			ci = 0
		}
		if v := g.Vertex(n.ID); v != nil {
			if !n.Computed {
				if n.Kind == graph.SupernodeKind {
					ci = 0 // supernodes carry no computation
				} else {
					ci = v.ComputeTime.Seconds()
				}
			}
			if st.Has(n.ID) {
				// Price Cl(v) with the artifact's actual tier: a
				// memory-resident artifact loads at memory speed, a demoted
				// one at disk speed, so the load-vs-compute comparison tracks
				// where the bytes really are.
				cl = st.LoadCostFor(n.ID, v.SizeBytes)
			}
		} else if n.Kind == graph.SupernodeKind {
			ci = 0
		}
		c.Compute[n.ID] = ci
		c.Load[n.ID] = cl
	}
	return c
}

// Plan is the output of a reuse planner: which vertices to load from EG.
// Vertices not in Reuse are computed (or already present on the client).
type Plan struct {
	// Reuse holds the final (backward-pruned) set Rp of vertex IDs to
	// load from the Experiment Graph.
	Reuse map[string]bool
	// Candidates holds the pre-backward-pass load candidate set: every
	// vertex the cost comparison picked for loading. Candidates minus
	// Reuse is what the backward pass dropped.
	Candidates map[string]bool
	// RecreationCost is the forward-pass cost estimate per vertex in
	// seconds (diagnostics and tests).
	RecreationCost map[string]float64
	// PredictedLoad is the Cl(v) the cost comparison used, in seconds, for
	// every vertex in Reuse — the prediction the calibration layer checks
	// against the measured fetch time.
	PredictedLoad map[string]float64
	// Stats counts the planner's decisions, feeding the server's
	// observability counters.
	Stats PlanStats
}

// Outcome is what a plan decided for one workload vertex: the reason code
// of its row in an optimize record (DESIGN.md "Explain & logging"). Every
// vertex has exactly one (Plan.Outcome), and PlanStats counts them.
type Outcome string

const (
	// Load: the plan loads the vertex from EG — the cost comparison picked
	// it and it survived the backward pass.
	Load Outcome = "reuse"
	// PrunedOffPath: the cost comparison picked the vertex for loading but
	// the backward pass dropped it as off the execution path.
	PrunedOffPath Outcome = "pruned-off-path"
	// ComputeByCost: a stored artifact exists but loading is no cheaper
	// than recomputing (Cl >= Ci + parent costs), or the planner never
	// loads (ALL_C).
	ComputeByCost Outcome = "compute-by-cost"
	// ComputeNotMaterialized: no loadable artifact exists (Cl = ∞ — EG
	// never materialized it).
	ComputeNotMaterialized Outcome = "compute-not-materialized"
	// Source: raw source vertex, content already on the client.
	Source Outcome = "source"
	// ClientComputed: non-source vertex whose content was already present
	// on the client (local pruning, Ci = 0).
	ClientComputed Outcome = "client-computed"
	// Supernode: multi-input connector; carries no data or computation
	// (§4.1).
	Supernode Outcome = "supernode"
)

// Outcome names the plan's decision for vertex n of the workload it was
// made for, priced with the costs it was made from; the order is the
// planner's own branch order (§6.1).
func (p *Plan) Outcome(n *graph.Node, costs Costs) Outcome {
	switch {
	case n.Kind == graph.SupernodeKind:
		return Supernode
	case n.IsSource():
		return Source
	case n.Computed:
		return ClientComputed
	case p.Reuse[n.ID]:
		return Load
	case p.Candidates[n.ID]:
		return PrunedOffPath
	case math.IsInf(costs.Load[n.ID], 1):
		return ComputeNotMaterialized
	default:
		return ComputeByCost
	}
}

// PlanStats counts one planning pass's outcomes, so the split is visible in
// /v1/stats and /metrics.
type PlanStats struct {
	// CandidateLoads is how many vertices the cost comparison picked for
	// loading before the backward pass (Load and PrunedOffPath).
	CandidateLoads int
	// PrunedOffPath is how many load candidates the backward pass dropped
	// as off the execution path.
	PrunedOffPath int
	// PrunedByCost is how many computable vertices had a loadable
	// artifact (finite Cl) that the plan does not load (ComputeByCost).
	PrunedByCost int
	// PrunedNotMaterialized is how many computable vertices had no
	// loadable artifact at all (ComputeNotMaterialized).
	PrunedNotMaterialized int
	// Computes is how many computable workload vertices (non-source, not
	// already on the client) the final plan does not cover with a load.
	Computes int
}

// newPlan finishes every planner from the vertices its cost comparison
// picked for loading and, when it computes them, the recreation costs: the
// backward pass keeps the candidates on the execution path, Stats counts
// each vertex's outcome, and every load carries the Cl(v) it was planned
// with.
func newPlan(w *graph.DAG, costs Costs, candidates map[string]bool, rec map[string]float64) *Plan {
	p := &Plan{Reuse: backwardPrune(w, candidates), Candidates: candidates, RecreationCost: rec}
	for _, n := range w.Nodes() {
		switch p.Outcome(n, costs) {
		case Load:
			p.Stats.CandidateLoads++
		case PrunedOffPath:
			p.Stats.PrunedOffPath++
		case ComputeByCost:
			p.Stats.PrunedByCost++
		case ComputeNotMaterialized:
			p.Stats.PrunedNotMaterialized++
		}
	}
	p.Stats.CandidateLoads += p.Stats.PrunedOffPath
	p.Stats.Computes = p.Stats.PrunedOffPath + p.Stats.PrunedByCost + p.Stats.PrunedNotMaterialized
	p.PredictedLoad = make(map[string]float64, len(p.Reuse))
	for id := range p.Reuse {
		if cl := costs.Load[id]; !math.IsInf(cl, 1) {
			p.PredictedLoad[id] = cl
		}
	}
	return p
}

// Planner generates reuse plans for workload DAGs.
type Planner interface {
	// Name labels the planner in experiment output ("LN", "HL", "ALL_M",
	// "ALL_C").
	Name() string
	// Plan decides which vertices of w to load given costs.
	Plan(w *graph.DAG, costs Costs) *Plan
}

// forward is Algorithm 2's forward pass over order, a topological order of
// the workload. It returns each vertex's recreation cost — the cheaper of
// loading it and executing it — and its execution cost, Ci(v) plus its
// parents' recreation costs (zero, as the recreation cost, for a source or
// a vertex already on the client), indexed as order; and the vertices whose
// load is the cheaper, the load candidates.
func forward(order []*graph.Node, costs Costs) (rec map[string]float64, exec []float64, candidates map[string]bool) {
	rec = make(map[string]float64, len(order))
	exec = make([]float64, len(order))
	candidates = make(map[string]bool)
	for i, n := range order {
		if n.IsSource() || n.Computed {
			rec[n.ID] = 0
			continue
		}
		var pcosts float64
		for _, p := range n.Parents {
			pcosts += rec[p.ID]
		}
		exec[i] = costs.Compute[n.ID] + pcosts
		if cl := costs.Load[n.ID]; cl < exec[i] {
			rec[n.ID] = cl
			candidates[n.ID] = true
		} else {
			rec[n.ID] = exec[i]
		}
	}
	return rec, exec, candidates
}

// Linear is the paper's linear-time reuse algorithm (Algorithm 2 +
// backward pass). Complexity O(|V|+|E|) in the workload DAG.
type Linear struct{}

// Name implements Planner.
func (Linear) Name() string { return "LN" }

// Plan implements Planner.
func (Linear) Plan(w *graph.DAG, costs Costs) *Plan {
	rec, _, candidates := forward(w.TopoOrder(), costs)
	return newPlan(w, costs, candidates, rec)
}

// backwardPrune walks from the terminals toward the sources, keeping only
// reuse vertices actually on the execution path: once a reuse vertex is
// reached, its ancestors need not be visited (§6.1 backward-pass).
func backwardPrune(w *graph.DAG, reuse map[string]bool) map[string]bool {
	final := make(map[string]bool)
	graph.Walk(w.Terminals(), make(map[string]bool), func(n *graph.Node) bool {
		if reuse[n.ID] {
			final[n.ID] = true
			return false
		}
		return !n.Computed // already on the client: ancestors not needed
	})
	return final
}

// bigM stands in for infinite capacities in the flow network; any finite
// cost in the experiments is far below it.
const bigM = 1e18

// Helix is the polynomial-time baseline: it takes each vertex's execution
// cost from the forward pass (so the PSP instance carries the same costs
// the paper's reduction would), reduces the load-vs-compute decision to a
// minimum s-t cut, and solves it with Edmonds–Karp (§7.1; see DESIGN.md
// for the substitution note). It yields the same plan as Linear at
// polynomial cost.
type Helix struct{}

// Name implements Planner.
func (Helix) Name() string { return "HL" }

// Plan implements Planner.
func (Helix) Plan(w *graph.DAG, costs Costs) *Plan {
	order := w.TopoOrder()
	rec, execCost, _ := forward(order, costs)
	// Network: 0 = source S, 1 = sink T, vertex i at index i+2.
	g := maxflow.New(len(order) + 2)
	for i, node := range order {
		exec := execCost[i]
		if math.IsInf(exec, 1) {
			exec = bigM
		}
		cl := costs.Load[node.ID]
		if math.IsInf(cl, 1) {
			cl = bigM
		}
		// Cutting S→v (cap = execution cost) selects "compute";
		// cutting v→T (cap = load cost) selects "load".
		g.AddEdge(0, i+2, exec)
		g.AddEdge(i+2, 1, cl)
	}
	g.MaxFlow(0, 1)
	side := g.MinCutReachable(0)
	reuse := make(map[string]bool)
	for i, node := range order {
		if node.IsSource() || node.Computed {
			continue
		}
		// Reachable from S in the residual means the S→v edge is not
		// saturated, i.e. the v→T (load) edge was cut: load v.
		if side[i+2] && !math.IsInf(costs.Load[node.ID], 1) {
			reuse[node.ID] = true
		}
	}
	return newPlan(w, costs, reuse, rec)
}

// AllMaterialized loads every materialized vertex regardless of cost
// (§7.4's ALL_M).
type AllMaterialized struct{}

// Name implements Planner.
func (AllMaterialized) Name() string { return "ALL_M" }

// Plan implements Planner.
func (AllMaterialized) Plan(w *graph.DAG, costs Costs) *Plan {
	reuse := make(map[string]bool)
	for _, n := range w.Nodes() {
		if !n.Computed && !math.IsInf(costs.Load[n.ID], 1) {
			reuse[n.ID] = true
		}
	}
	return newPlan(w, costs, reuse, nil)
}

// AllCompute never reuses anything (§7.4's ALL_C, the no-reuse baseline).
type AllCompute struct{}

// Name implements Planner.
func (AllCompute) Name() string { return "ALL_C" }

// Plan implements Planner.
func (AllCompute) Plan(w *graph.DAG, costs Costs) *Plan {
	return newPlan(w, costs, map[string]bool{}, nil)
}
