// Package explain is the optimizer's decision-introspection layer: it
// builds the record of an optimize or update call, a per-vertex decision
// trail — the Ci(v)/Cl(v)/Cr(v)/p(v) inputs the reuse planner and
// materializer saw, and which branch fired, as a reason code — and renders
// it as deterministic, byte-stable JSON, human-readable text, and Graphviz
// DOT.
//
// The paper's contribution is a chain of decisions (materialize or not,
// load vs. recompute, warmstart or not); metrics and traces expose only
// timings and counts. Explain answers *why*: why a vertex was recomputed
// instead of loaded, why an artifact was vetoed instead of materialized —
// from a single correlated request record instead of a debugger session.
package explain

import (
	"math"
	"strconv"

	"repro/internal/calib"
	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/reuse"
)

// Record kinds: one Record per optimizer round-trip.
const (
	// KindOptimize records a reuse-planning decision trail.
	KindOptimize = "optimize"
	// KindUpdate records a materialization decision trail.
	KindUpdate = "update"
)

// Reuse-planner reason codes: one per workload vertex in an optimize
// record. The vocabulary is documented in DESIGN.md "Explain & logging".
const (
	// DecisionReuse: the plan loads this vertex from EG (Cl < exec cost,
	// survived the backward pass).
	DecisionReuse = "reuse"
	// DecisionPrunedOffPath: the forward pass picked the vertex for
	// loading but the backward pass dropped it as off the execution path.
	DecisionPrunedOffPath = "pruned-off-path"
	// DecisionComputeByCost: a stored artifact exists but loading is no
	// cheaper than recomputing (Cl >= Ci + parent costs).
	DecisionComputeByCost = "compute-by-cost"
	// DecisionComputeNotMaterialized: no loadable artifact exists (Cl = ∞
	// — EG never materialized it).
	DecisionComputeNotMaterialized = "compute-not-materialized"
	// DecisionSource: raw source vertex, content already on the client.
	DecisionSource = "source"
	// DecisionClientComputed: non-source vertex whose content was already
	// present on the client (local pruning, Ci = 0).
	DecisionClientComputed = "client-computed"
	// DecisionSupernode: multi-input connector; carries no data or
	// computation (§4.1).
	DecisionSupernode = "supernode"
)

// Materializer reason codes: one per eligible EG vertex in an update
// record. They are the strategy's own outcomes (materialize.Outcome), which
// says what each means under which strategy.
const (
	MatSelected        = string(materialize.Selected)
	MatVetoedLoadCost  = string(materialize.Vetoed)
	MatBudgetExhausted = string(materialize.OverBudget)
)

// Cost is a cost input in seconds with deterministic rendering: finite
// values marshal as JSON numbers via strconv 'g' formatting, +Inf (the
// paper's "no artifact / never seen" sentinel) as the string "inf".
type Cost float64

// Inf reports whether the cost is the infinite sentinel.
func (c Cost) Inf() bool { return math.IsInf(float64(c), 1) }

// String renders the cost in seconds ("0.25", "inf").
func (c Cost) String() string {
	if c.Inf() {
		return "inf"
	}
	return strconv.FormatFloat(float64(c), 'g', -1, 64)
}

// MarshalJSON implements deterministic JSON rendering.
func (c Cost) MarshalJSON() ([]byte, error) {
	if c.Inf() {
		return []byte(`"inf"`), nil
	}
	return []byte(c.String()), nil
}

// VertexDecision is one workload vertex's reuse decision with the cost
// inputs that produced it.
type VertexDecision struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Parents []string `json:"parents,omitempty"`
	// ComputeCost is Ci(v) and LoadCost is Cl(v), the §6.1 inputs from
	// reuse.GatherCosts.
	ComputeCost Cost `json:"compute_cost_sec"`
	LoadCost    Cost `json:"load_cost_sec"`
	// RecreationCost is the forward-pass recreation-cost estimate, when
	// the planner computes one (Linear and Helix do).
	RecreationCost *Cost `json:"recreation_cost_sec,omitempty"`
	// Decision is the reason code (Decision* constants).
	Decision string `json:"decision"`
}

// PlanSummary mirrors reuse.PlanStats plus the final reuse count.
type PlanSummary struct {
	Vertices              int `json:"vertices"`
	Reuse                 int `json:"reuse"`
	CandidateLoads        int `json:"candidate_loads"`
	PrunedOffPath         int `json:"pruned_off_path"`
	PrunedByCost          int `json:"pruned_by_cost"`
	PrunedNotMaterialized int `json:"pruned_not_materialized"`
	Computes              int `json:"computes"`
}

// WarmstartDecision records one proposed donor.
type WarmstartDecision struct {
	VertexID string  `json:"vertex_id"`
	DonorID  string  `json:"donor_id"`
	Quality  float64 `json:"quality"`
}

// MatDecision is one eligible EG vertex's materialization decision with
// the Equation-2 inputs that produced it.
type MatDecision struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	Frequency int    `json:"frequency"`
	// RecreationCost is Cr(v) and LoadCost Cl(v); Potential is p(v), the
	// best reachable model quality (§5.1).
	RecreationCost Cost    `json:"recreation_cost_sec"`
	LoadCost       Cost    `json:"load_cost_sec"`
	Potential      float64 `json:"potential"`
	Materialized   bool    `json:"materialized"`
	// Decision is the reason code (Mat* constants).
	Decision string `json:"decision"`
}

// MatSummary aggregates one materialization run.
type MatSummary struct {
	Strategy        string `json:"strategy"`
	BudgetBytes     int64  `json:"budget_bytes"`
	Eligible        int    `json:"eligible"`
	Selected        int    `json:"selected"`
	SelectedBytes   int64  `json:"selected_bytes"`
	VetoedLoadCost  int    `json:"vetoed_load_cost"`
	BudgetExhausted int    `json:"budget_exhausted"`
}

// Record is one optimize or update call's full decision trail. Records
// are immutable once built; rendering the same record always produces the
// same bytes (vertices are in deterministic order, maps never iterate at
// render time).
type Record struct {
	// Seq is the number of optimize and update calls the server had served
	// when it made the record, that call included.
	Seq int64 `json:"seq"`
	// RequestID is the client-generated correlation ID (see
	// obs.RequestIDHeader); empty when the caller supplied none.
	RequestID string `json:"request_id,omitempty"`
	// Kind is "optimize" or "update".
	Kind string `json:"kind"`

	// Optimize-record fields.
	Planner    string              `json:"planner,omitempty"`
	Vertices   []VertexDecision    `json:"vertices,omitempty"`
	Plan       *PlanSummary        `json:"plan,omitempty"`
	Warmstarts []WarmstartDecision `json:"warmstarts,omitempty"`

	// Update-record fields.
	Materialize []MatDecision `json:"materialize,omitempty"`
	Mat         *MatSummary   `json:"mat,omitempty"`

	// Calibration is the request's optimizer scorecard — estimated time
	// saved by reuse, realized speedup versus the naive all-compute plan —
	// attached to update records when the run carried measurements.
	Calibration *calib.Scorecard `json:"calibration,omitempty"`
}

// BuildOptimize assembles the decision trail of one reuse-planning pass
// from the planner's inputs (costs) and outputs (plan). Vertices appear in
// the workload's deterministic topological order.
func BuildOptimize(w *graph.DAG, costs reuse.Costs, plan *reuse.Plan, planner, requestID string, ws []reuse.WarmstartCandidate) *Record {
	rec := &Record{
		Kind:      KindOptimize,
		RequestID: requestID,
		Planner:   planner,
		Plan: &PlanSummary{
			Vertices:              w.Len(),
			Reuse:                 len(plan.Reuse),
			CandidateLoads:        plan.Stats.CandidateLoads,
			PrunedOffPath:         plan.Stats.PrunedOffPath,
			PrunedByCost:          plan.Stats.PrunedByCost,
			PrunedNotMaterialized: plan.Stats.PrunedNotMaterialized,
			Computes:              plan.Stats.Computes,
		},
	}
	for _, n := range w.TopoOrder() {
		vd := VertexDecision{
			ID:          n.ID,
			Name:        n.Name,
			Kind:        n.Kind.String(),
			ComputeCost: Cost(costs.Compute[n.ID]),
			LoadCost:    Cost(costs.Load[n.ID]),
			Decision:    decideVertex(n, costs, plan),
		}
		for _, p := range n.Parents {
			vd.Parents = append(vd.Parents, p.ID)
		}
		if plan.RecreationCost != nil {
			if rc, ok := plan.RecreationCost[n.ID]; ok {
				c := Cost(rc)
				vd.RecreationCost = &c
			}
		}
		rec.Vertices = append(rec.Vertices, vd)
	}
	for _, c := range ws {
		rec.Warmstarts = append(rec.Warmstarts, WarmstartDecision{
			VertexID: c.VertexID, DonorID: c.DonorID, Quality: c.Quality,
		})
	}
	return rec
}

// decideVertex maps one vertex to its reason code; the order mirrors the
// planner's own branch order (§6.1).
func decideVertex(n *graph.Node, costs reuse.Costs, plan *reuse.Plan) string {
	switch {
	case n.Kind == graph.SupernodeKind:
		return DecisionSupernode
	case n.IsSource():
		return DecisionSource
	case n.Computed:
		return DecisionClientComputed
	case plan.Reuse[n.ID]:
		return DecisionReuse
	case plan.Candidates[n.ID]:
		return DecisionPrunedOffPath
	case math.IsInf(costs.Load[n.ID], 1):
		return DecisionComputeNotMaterialized
	default:
		return DecisionComputeByCost
	}
}

// BuildUpdate renders the record of one materialization run over the graph
// it ran on: a row for every eligible vertex g holds, sorted by ID, with the
// outcome under the strategy's own rules (run.Outcomes), beside the
// Equation-2 inputs of each vertex. Cl(v) is priced with profile, the
// store's. It derives nothing: eligibility, the veto and the counts are the
// run's; selected_bytes sums the selected rows.
func BuildUpdate(g *eg.Graph, run materialize.Run, profile cost.Profile, strategy string, budget int64, requestID string) *Record {
	rec := &Record{
		Kind:      KindUpdate,
		RequestID: requestID,
		Mat: &MatSummary{
			Strategy:        strategy,
			BudgetBytes:     budget,
			Eligible:        run.Eligible,
			Selected:        run.Selected,
			VetoedLoadCost:  run.Vetoed,
			BudgetExhausted: run.OverBudget(),
		},
		Materialize: make([]MatDecision, 0, run.Eligible),
	}
	run.Outcomes(g, func(v *eg.Vertex, o materialize.Outcome, held bool) {
		if o == materialize.Selected {
			rec.Mat.SelectedBytes += v.SizeBytes
		}
		rec.Materialize = append(rec.Materialize, MatDecision{
			ID:             v.ID,
			Name:           v.Name,
			SizeBytes:      v.SizeBytes,
			Frequency:      v.Frequency,
			RecreationCost: Cost(v.RecreationCost().Seconds()),
			LoadCost:       Cost(profile.LoadCost(v.SizeBytes).Seconds()),
			Potential:      v.Potential(),
			Materialized:   held,
			Decision:       string(o),
		})
	})
	return rec
}
