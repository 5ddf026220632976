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
	// Reuse is what the backward pass dropped — the explain layer turns
	// this into per-vertex reason codes.
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

// withPredictions fills PredictedLoad from the planning costs so executors
// can annotate fetches with the exact numbers the decision used.
func (p *Plan) withPredictions(costs Costs) *Plan {
	p.PredictedLoad = make(map[string]float64, len(p.Reuse))
	for id := range p.Reuse {
		if cl := costs.Load[id]; !math.IsInf(cl, 1) {
			p.PredictedLoad[id] = cl
		}
	}
	return p
}

// PlanStats counts one planning pass's decisions, reason-coded so the
// split is visible in /v1/stats and /metrics. Planners fill the fields
// that apply to them; the zero value means "not tracked".
type PlanStats struct {
	// CandidateLoads is how many vertices the cost comparison picked for
	// loading before the backward pass.
	CandidateLoads int
	// PrunedOffPath is how many load candidates the backward pass dropped
	// as off the execution path (reason code "pruned-off-path").
	PrunedOffPath int
	// PrunedByCost is how many computable vertices had a loadable
	// artifact (finite Cl) that the cost comparison rejected because
	// recomputing was no more expensive (reason code "compute-by-cost").
	PrunedByCost int
	// PrunedNotMaterialized is how many computable vertices had no
	// loadable artifact at all — Cl = ∞ because EG never materialized
	// them (reason code "compute-not-materialized").
	PrunedNotMaterialized int
	// Computes is how many computable workload vertices (non-source, not
	// already on the client) the final plan does not cover with a load.
	Computes int
}

// planStats derives reason-coded PlanStats from the per-vertex costs, the
// pre-prune candidate set, and the final reuse set.
func planStats(w *graph.DAG, costs Costs, candidates, final map[string]bool) PlanStats {
	st := PlanStats{
		CandidateLoads: len(candidates),
		PrunedOffPath:  len(candidates) - len(final),
	}
	for _, n := range w.Nodes() {
		if n.IsSource() || n.Computed || n.Kind == graph.SupernodeKind || final[n.ID] {
			continue
		}
		st.Computes++
		if candidates[n.ID] {
			continue // counted in PrunedOffPath
		}
		if math.IsInf(costs.Load[n.ID], 1) {
			st.PrunedNotMaterialized++
		} else {
			st.PrunedByCost++
		}
	}
	return st
}

// Planner generates reuse plans for workload DAGs.
type Planner interface {
	// Name labels the planner in experiment output ("LN", "HL", "ALL_M",
	// "ALL_C").
	Name() string
	// Plan decides which vertices of w to load given costs.
	Plan(w *graph.DAG, costs Costs) *Plan
}

// Linear is the paper's linear-time reuse algorithm (Algorithm 2 +
// backward pass). Complexity O(|V|+|E|) in the workload DAG.
type Linear struct{}

// Name implements Planner.
func (Linear) Name() string { return "LN" }

// Plan implements Planner.
func (Linear) Plan(w *graph.DAG, costs Costs) *Plan {
	order := w.TopoOrder()
	rec := make(map[string]float64, len(order))
	reuse := make(map[string]bool)
	// Forward pass (Algorithm 2).
	for _, n := range order {
		if n.IsSource() || n.Computed {
			rec[n.ID] = 0
			continue
		}
		var pcosts float64
		for _, p := range n.Parents {
			pcosts += rec[p.ID]
		}
		exec := costs.Compute[n.ID] + pcosts
		if cl := costs.Load[n.ID]; cl < exec {
			rec[n.ID] = cl
			reuse[n.ID] = true
		} else {
			rec[n.ID] = exec
		}
	}
	final := backwardPrune(w, reuse)
	p := &Plan{Reuse: final, Candidates: reuse, RecreationCost: rec, Stats: planStats(w, costs, reuse, final)}
	return p.withPredictions(costs)
}

// backwardPrune walks from the terminals toward the sources, keeping only
// reuse vertices actually on the execution path: once a reuse vertex is
// reached, its ancestors need not be visited (§6.1 backward-pass).
func backwardPrune(w *graph.DAG, reuse map[string]bool) map[string]bool {
	final := make(map[string]bool)
	visited := make(map[string]bool)
	stack := w.Terminals()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n.ID] {
			continue
		}
		visited[n.ID] = true
		if reuse[n.ID] {
			final[n.ID] = true
			continue // stop traversing parents
		}
		if n.Computed {
			continue // already on the client; ancestors not needed
		}
		stack = append(stack, n.Parents...)
	}
	return final
}

// bigM stands in for infinite capacities in the flow network; any finite
// cost in the experiments is far below it.
const bigM = 1e18

// Helix is the polynomial-time baseline: it folds parent recreation costs
// into each vertex (the same DP as the forward pass), reduces the
// load-vs-compute decision to a minimum s-t cut, and solves it with
// Edmonds–Karp (§7.1; see DESIGN.md for the substitution note). It yields
// the same plan as Linear at polynomial cost.
type Helix struct{}

// Name implements Planner.
func (Helix) Name() string { return "HL" }

// Plan implements Planner.
func (Helix) Plan(w *graph.DAG, costs Costs) *Plan {
	order := w.TopoOrder()
	n := len(order)
	// Network: 0 = source S, 1 = sink T, vertex i at index i+2.
	idx := make(map[string]int, n)
	for i, node := range order {
		idx[node.ID] = i + 2
	}
	g := maxflow.New(n + 2)
	rec := make(map[string]float64, n)
	// The DP mirrors the forward pass so the PSP instance carries the
	// same execution costs the paper's reduction would.
	execCost := make([]float64, n)
	for i, node := range order {
		if node.IsSource() || node.Computed {
			rec[node.ID] = 0
			execCost[i] = 0
			continue
		}
		var pcosts float64
		for _, p := range node.Parents {
			pcosts += rec[p.ID]
		}
		exec := costs.Compute[node.ID] + pcosts
		execCost[i] = exec
		if cl := costs.Load[node.ID]; cl < exec {
			rec[node.ID] = cl
		} else {
			rec[node.ID] = exec
		}
	}
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
	final := backwardPrune(w, reuse)
	p := &Plan{Reuse: final, Candidates: reuse, RecreationCost: rec, Stats: planStats(w, costs, reuse, final)}
	return p.withPredictions(costs)
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
	final := backwardPrune(w, reuse)
	p := &Plan{Reuse: final, Candidates: reuse, Stats: planStats(w, costs, reuse, final)}
	return p.withPredictions(costs)
}

// AllCompute never reuses anything (§7.4's ALL_C, the no-reuse baseline).
type AllCompute struct{}

// Name implements Planner.
func (AllCompute) Name() string { return "ALL_C" }

// Plan implements Planner.
func (AllCompute) Plan(w *graph.DAG, costs Costs) *Plan {
	none := map[string]bool{}
	p := &Plan{Reuse: none, Candidates: none, Stats: planStats(w, costs, none, none)}
	return p.withPredictions(costs)
}
