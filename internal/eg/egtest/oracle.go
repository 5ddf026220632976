// Package egtest holds the reference derivation of Cr(v) and p(v): the
// one-pass, whole-graph computation the Experiment Graph performed on every
// call before it maintained those values. Tests compare the maintained
// state against it; nothing else imports it.
package egtest

import (
	"fmt"
	"time"

	"repro/internal/eg"
	"repro/internal/graph"
)

// RecreationCosts computes Cr(v) = t(v) + Σ over parents Cr(p) for every
// vertex in one pass in topological order.
func RecreationCosts(g *eg.Graph) map[string]time.Duration {
	out := make(map[string]time.Duration, g.Len())
	for _, id := range g.TopoOrder() {
		v := g.Vertex(id)
		cr := v.ComputeTime
		for _, p := range v.Parents {
			cr += out[p]
		}
		out[id] = cr
	}
	return out
}

// Potentials computes p(v), the quality of the best model reachable from
// v, for every vertex in one reverse-topological pass.
func Potentials(g *eg.Graph) map[string]float64 {
	order := g.TopoOrder()
	out := make(map[string]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := g.Vertex(order[i])
		p := 0.0
		if v.Kind == graph.ModelKind {
			p = v.Quality
		}
		for _, c := range v.Children {
			if out[c] > p {
				p = out[c]
			}
		}
		out[v.ID] = p
	}
	return out
}

// Check compares everything the graph maintains with what a from-scratch
// derivation gives, with ==: Cr and p of every vertex, the ID-sorted vertex
// view, and that TopoOrder covers the graph (every vertex has its parents).
func Check(g *eg.Graph) error {
	vs := g.Vertices()
	if len(vs) != g.Len() {
		return fmt.Errorf("Vertices() has %d entries, Len() is %d", len(vs), g.Len())
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].ID >= vs[i].ID {
			return fmt.Errorf("Vertices() is not in strictly ascending ID order at %d", i)
		}
	}
	order := g.TopoOrder()
	if len(order) != len(vs) {
		return fmt.Errorf("TopoOrder() schedules %d of %d vertices", len(order), len(vs))
	}
	cr, pot := RecreationCosts(g), Potentials(g)
	materialized := 0
	for _, v := range vs {
		if v != g.Vertex(v.ID) {
			return fmt.Errorf("Vertices() entry %s is not the graph's vertex", v.ID)
		}
		if v.RecreationCost() != cr[v.ID] {
			return fmt.Errorf("%s (%s): maintained Cr %v, derived %v", v.ID, v.Name, v.RecreationCost(), cr[v.ID])
		}
		if v.Potential() != pot[v.ID] {
			return fmt.Errorf("%s (%s): maintained p %v, derived %v", v.ID, v.Name, v.Potential(), pot[v.ID])
		}
		if v.Materialized {
			materialized++
		}
	}
	if got := g.MaterializedCount(); got != materialized {
		return fmt.Errorf("MaterializedCount() %d, %d vertices are materialized", got, materialized)
	}
	return nil
}
