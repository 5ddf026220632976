package reuse

import (
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/store"
)

// WarmstartCandidate describes a donor model found in the Experiment Graph
// for a model-training vertex of the incoming workload.
type WarmstartCandidate struct {
	// VertexID is the workload vertex whose training will be
	// warmstarted.
	VertexID string
	// DonorID is the EG vertex holding the donor model.
	DonorID string
	// Quality is the donor's evaluation score.
	Quality float64
}

// FindWarmstarts scans the workload DAG for model-training operations that
// (a) the user allowed to warmstart, (b) are not already being loaded by
// the plan, and returns the best donor per §6.2: a materialized model in
// EG of the same learner kind trained on the same input artifact, with the
// highest quality among candidates.
func FindWarmstarts(w *graph.DAG, g *eg.Graph, st *store.Manager, plan *Plan) []WarmstartCandidate {
	var out []WarmstartCandidate
	for _, n := range w.Nodes() {
		if n.Kind != graph.ModelKind || n.Op == nil || n.Computed {
			continue
		}
		if plan != nil && plan.Reuse[n.ID] {
			continue // the model itself is being loaded; no training happens
		}
		wop, ok := n.Op.(graph.WarmstartableOp)
		if !ok || !wop.CanWarmstart() {
			continue
		}
		if len(n.Parents) != 1 {
			continue
		}
		trainInput := g.Vertex(n.Parents[0].ID)
		if trainInput == nil {
			continue
		}
		best := WarmstartCandidate{VertexID: n.ID, Quality: -1}
		for _, childID := range trainInput.Children {
			if childID == n.ID {
				continue
			}
			cand := g.Vertex(childID)
			if cand == nil || cand.Kind != graph.ModelKind || !cand.Materialized {
				continue
			}
			if cand.Meta["model"] != wop.ModelKind() {
				continue
			}
			if !st.Has(childID) {
				continue
			}
			if cand.Quality > best.Quality {
				best.DonorID = childID
				best.Quality = cand.Quality
			}
		}
		if best.DonorID != "" {
			out = append(out, best)
		}
	}
	return out
}
