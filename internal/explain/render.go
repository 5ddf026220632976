package explain

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/obs"
)

// WriteJSON renders the record as indented, byte-stable JSON: struct field
// order is fixed, vertex slices are pre-sorted at build time, and Cost
// formatting is deterministic.
func (r *Record) WriteJSON(w io.Writer) error { return obs.WriteJSON(w, r) }

// WriteText renders the record as a fixed-width human-readable report.
func (r *Record) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "explain %s seq=%d", r.Kind, r.Seq)
	if r.RequestID != "" {
		fmt.Fprintf(&b, " request_id=%s", r.RequestID)
	}
	b.WriteByte('\n')
	switch r.Kind {
	case KindOptimize:
		r.writeOptimizeText(&b)
	case KindUpdate:
		r.writeUpdateText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (r *Record) writeOptimizeText(b *strings.Builder) {
	if r.Plan != nil {
		fmt.Fprintf(b, "planner %s: %d vertices, reuse %d, computes %d (candidates %d, pruned-off-path %d, by-cost %d, not-materialized %d)\n",
			r.Planner, r.Plan.Vertices, r.Plan.Reuse, r.Plan.Computes,
			r.Plan.CandidateLoads, r.Plan.PrunedOffPath, r.Plan.PrunedByCost, r.Plan.PrunedNotMaterialized)
	}
	fmt.Fprintf(b, "%-26s %10s %10s %10s  %s\n", "DECISION", "Ci(s)", "Cl(s)", "Cr(s)", "VERTEX")
	for _, v := range r.Vertices {
		cr := "-"
		if v.RecreationCost != nil {
			cr = v.RecreationCost.String()
		}
		fmt.Fprintf(b, "%-26s %10s %10s %10s  %s %s\n",
			v.Decision, v.ComputeCost, v.LoadCost, cr, graph.ShortID(v.ID), v.Name)
	}
	for _, ws := range r.Warmstarts {
		fmt.Fprintf(b, "warmstart %s <- donor %s (quality %s)\n",
			graph.ShortID(ws.VertexID), graph.ShortID(ws.DonorID), formatFloat(ws.Quality))
	}
}

func (r *Record) writeUpdateText(b *strings.Builder) {
	if r.Mat != nil {
		fmt.Fprintf(b, "strategy %s: budget %d bytes, eligible %d, selected %d (%d bytes), vetoed-load-cost %d, budget-exhausted %d\n",
			r.Mat.Strategy, r.Mat.BudgetBytes, r.Mat.Eligible, r.Mat.Selected,
			r.Mat.SelectedBytes, r.Mat.VetoedLoadCost, r.Mat.BudgetExhausted)
	}
	fmt.Fprintf(b, "%-18s %10s %10s %8s %5s %12s  %s\n",
		"DECISION", "Cr(s)", "Cl(s)", "p(v)", "f", "BYTES", "VERTEX")
	for _, m := range r.Materialize {
		fmt.Fprintf(b, "%-18s %10s %10s %8s %5d %12d  %s %s\n",
			m.Decision, m.RecreationCost, m.LoadCost, formatFloat(m.Potential),
			m.Frequency, m.SizeBytes, graph.ShortID(m.ID), m.Name)
	}
	if sc := r.Calibration; sc != nil {
		fmt.Fprintf(b, "scorecard: reused %d, executed %d, est-saved %ss, speedup %sx",
			sc.Reused, sc.Executed, formatFloat(sc.EstimatedSavedSec), formatFloat(sc.Speedup))
		if sc.WallSec > 0 {
			fmt.Fprintf(b, ", wall %ss", formatFloat(sc.WallSec))
		}
		b.WriteByte('\n')
	}
}

// decisionFill maps reason codes to Graphviz fill colors; the palette
// extends graph.WriteDOT's (blue = loaded from EG, green = on the client).
var decisionFill = map[string]string{
	DecisionReuse:          "#cce5ff",
	DecisionSource:         "#e2f0d9",
	DecisionClientComputed: "#e2f0d9",
	DecisionPrunedOffPath:  "#d9d9d9",
	MatSelected:            "#cce5ff",
	MatVetoedLoadCost:      "#f8cecc",
	MatBudgetExhausted:     "#fff2cc",
}

// WriteDOT renders an optimize record's workload DAG annotated with
// decisions and cost inputs, or an update record's eligible EG subgraph
// annotated with materialization decisions. Output is deterministic for a
// given record.
func (r *Record) WriteDOT(w io.Writer) error {
	d := graph.NewDOT("explain-" + r.Kind)
	switch r.Kind {
	case KindOptimize:
		for _, v := range r.Vertices {
			label := fmt.Sprintf("%s\\n%s\\nCi=%s Cl=%s", v.Name, v.Decision, v.ComputeCost, v.LoadCost)
			if v.Kind == "supernode" {
				label = ""
			}
			d.Node(v.ID, graph.DOTShape(v.Kind), label, fillAttrs(v.Decision))
		}
		for _, v := range r.Vertices {
			for _, p := range v.Parents {
				d.Edge(p, v.ID)
			}
		}
	case KindUpdate:
		for _, m := range r.Materialize {
			label := fmt.Sprintf("%s\\n%s\\nCr=%s Cl=%s f=%d", m.Name, m.Decision, m.RecreationCost, m.LoadCost, m.Frequency)
			attrs := fillAttrs(m.Decision)
			if m.Materialized {
				attrs += ", penwidth=2"
			}
			d.Node(m.ID, "box", label, attrs)
		}
	}
	return d.End(w)
}

// fillAttrs are the DOT attributes that color a vertex by its decision.
func fillAttrs(decision string) string {
	if fill, ok := decisionFill[decision]; ok {
		return fmt.Sprintf(", style=filled, fillcolor=%q", fill)
	}
	return ""
}

// WriteEGDOT renders the whole Experiment Graph as Graphviz DOT annotated
// with recreation costs, frequencies, sizes, and materialization flags.
// Vertices are emitted sorted by ID and edges in stored parent order, so
// output is byte-stable for a given graph (map iteration never reaches the
// writer). It renders a snapshot — one consistent copy taken under the
// graph's lock — so it may run beside the updater.
func WriteEGDOT(g *eg.Graph, w io.Writer) error {
	d := graph.NewDOT("experiment-graph")
	vertices := g.Snapshot().Vertices // sorted by ID
	for _, v := range vertices {
		label := fmt.Sprintf("%s\\nf=%d Cr=%s s=%dB", v.Name, v.Frequency,
			Cost(v.RecreationCost().Seconds()), v.SizeBytes)
		if v.Kind == graph.SupernodeKind {
			label = ""
		}
		attrs := ""
		if v.Materialized {
			attrs += `, style=filled, fillcolor="#cce5ff", penwidth=2`
		}
		if v.External {
			attrs += `, style=dashed`
		}
		d.Node(v.ID, graph.DOTShape(v.Kind.String()), label, attrs)
	}
	for _, v := range vertices {
		for _, p := range v.Parents {
			d.Edge(p, v.ID)
		}
	}
	return d.End(w)
}

func formatFloat(v float64) string { return Cost(v).String() }
