package graph

import (
	"fmt"
	"io"
	"strings"
)

// DOT is the skeleton every Graphviz rendering in the repository shares —
// this package's workload DAG and explain's decision records and
// Experiment Graph: one header, vertices under their short IDs with a
// quoted label, edges, and the closing brace.
type DOT struct{ b strings.Builder }

// NewDOT starts a top-to-bottom digraph named title.
func NewDOT(title string) *DOT {
	d := &DOT{}
	fmt.Fprintf(&d.b, "digraph %s {\n  rankdir=TB;\n  node [fontsize=10];\n", dotQuote(title))
	return d
}

// Node adds a vertex; attrs, when not empty, follows the label
// (", style=filled, ...").
func (d *DOT) Node(id, shape, label, attrs string) {
	fmt.Fprintf(&d.b, "  %s [shape=%s, label=%s%s];\n", dotQuote(ShortID(id)), shape, dotQuote(label), attrs)
}

// Edge adds the edge parent → child.
func (d *DOT) Edge(parent, child string) {
	fmt.Fprintf(&d.b, "  %s -> %s;\n", dotQuote(ShortID(parent)), dotQuote(ShortID(child)))
}

// End closes the digraph and writes it to w.
func (d *DOT) End(w io.Writer) error {
	d.b.WriteString("}\n")
	_, err := io.WriteString(w, d.b.String())
	return err
}

// DOTShape is the node shape of a vertex kind, named as Kind.String names
// it: models are ellipses, aggregates diamonds, supernodes points, and
// datasets boxes.
func DOTShape(kind string) string {
	switch kind {
	case "model":
		return "ellipse"
	case "aggregate":
		return "diamond"
	case "supernode":
		return "point"
	}
	return "box"
}

// dotQuote quotes a DOT string, escaping only double quotes: label escapes
// like \n must survive verbatim (fmt's %q would double the backslash and
// Graphviz would render a literal "\n").
func dotQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// ShortID is the first 8 characters of a vertex ID, how renderings name it.
func ShortID(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}

// WriteDOT renders the workload DAG in Graphviz DOT format for
// visualization and debugging: vertices are shaped by kind (DOTShape), and
// executed vertices are annotated with their measured compute time.
func (g *DAG) WriteDOT(w io.Writer, title string) error {
	d := NewDOT(title)
	for _, n := range g.order {
		label := n.Name
		if n.ComputeTime > 0 {
			label = fmt.Sprintf("%s\\n%s", n.Name, n.ComputeTime.Round(n.ComputeTime/100))
		}
		attrs := ""
		if n.LoadedFromEG {
			attrs = `, style=filled, fillcolor="#cce5ff"`
		} else if n.Computed {
			attrs = `, style=filled, fillcolor="#e2f0d9"`
		}
		d.Node(n.ID, DOTShape(n.Kind.String()), label, attrs)
	}
	for _, n := range g.order {
		for _, p := range n.Parents {
			d.Edge(p.ID, n.ID)
		}
	}
	return d.End(w)
}
