package eg

import (
	"slices"
	"strings"

	"repro/internal/graph"
)

// The graph owns what the optimizer derives from it (§5.2 "Run-time and
// Complexity": the inputs of Algorithm 1 are computed incrementally): a
// topological order, Cr(v) and p(v). Merge marks the vertices whose inputs
// it changed and refreshLocked re-derives exactly what those marks reach; a
// rebuild is the same routine with every vertex marked.

const (
	costDirty uint8 = 1 << iota // Cr(v) must be re-derived
	potDirty                    // p(v) must be re-derived
)

func compareID(a, b *Vertex) int { return strings.Compare(a.ID, b.ID) }

// markCost queues v for the forward (Cr) sweep of refreshLocked.
func (g *Graph) markCost(v *Vertex) {
	if v.dirty&costDirty != 0 {
		return
	}
	v.dirty |= costDirty
	g.costPending++
	if v.pos < g.costFrom {
		g.costFrom = v.pos
	}
}

// markPot queues v for the backward (p) sweep of refreshLocked.
func (g *Graph) markPot(v *Vertex) {
	if v.dirty&potDirty != 0 {
		return
	}
	v.dirty |= potDirty
	g.potPending++
	if v.pos > g.potFrom {
		g.potFrom = v.pos
	}
}

// refreshLocked re-derives Cr and p of the marked vertices and of everything
// a changed value reaches: one sweep down the order for Cr (a vertex whose
// Cr changed marks its children, which lie further down), one sweep up for p
// (a vertex whose p changed marks its parents, which lie further up). Each
// sweep ends when no mark is pending, so the work is bounded by the span of
// the order between the first mark and the last vertex it reaches, not by
// the graph. Values are recomputed from the neighbours, never adjusted, so
// they equal a from-scratch derivation bit for bit: Cr is a sum over paths
// (a parent listed twice counts twice) and p a maximum that may fall.
func (g *Graph) refreshLocked() {
	for i := g.costFrom; g.costPending > 0; i++ {
		v := g.order[i]
		if v.dirty&costDirty == 0 {
			continue
		}
		v.dirty &^= costDirty
		g.costPending--
		cr := v.ComputeTime
		for _, p := range v.Parents {
			cr += g.vertices[p].cr
		}
		if cr != v.cr {
			v.cr = cr
			for _, c := range v.Children {
				g.markCost(g.vertices[c])
			}
		}
	}
	for i := g.potFrom; g.potPending > 0; i-- {
		v := g.order[i]
		if v.dirty&potDirty == 0 {
			continue
		}
		v.dirty &^= potDirty
		g.potPending--
		pot := 0.0
		if v.Kind == graph.ModelKind {
			pot = v.Quality
		}
		for _, c := range v.Children {
			if cp := g.vertices[c].pot; cp > pot {
				pot = cp
			}
		}
		if pot != v.pot {
			v.pot = pot
			for _, p := range v.Parents {
				g.markPot(g.vertices[p])
			}
		}
	}
	g.costFrom, g.potFrom = len(g.order), -1
}

// sortInsertedLocked restores the ID order of byID after a merge appended
// the new vertices behind byID[:known]: it sorts the newcomers among
// themselves and moves each block of known vertices up once, so a merge of
// k new vertices costs k·log comparisons and at most one pass of pointer
// moves, whatever the size of the graph.
func (g *Graph) sortInsertedLocked(known int) {
	if known == len(g.byID) {
		return
	}
	fresh := slices.Clone(g.byID[known:])
	slices.SortFunc(fresh, compareID)
	to := len(g.byID)
	for j := len(fresh) - 1; j >= 0; j-- {
		at, _ := slices.BinarySearchFunc(g.byID[:known], fresh[j], compareID)
		to -= known - at
		copy(g.byID[to:], g.byID[at:known])
		known = at
		to--
		g.byID[to] = fresh[j]
	}
}

// rederiveLocked renumbers the order and re-derives Cr and p of every
// vertex: the refresh whose dirty set is the whole graph. It runs where the
// graph shrank (Prune) or was reborn (FromSnapshot).
func (g *Graph) rederiveLocked() {
	g.costFrom, g.potFrom = len(g.order), -1
	for i, v := range g.order {
		v.pos, v.dirty = i, 0
		g.markCost(v)
		g.markPot(v)
	}
	g.refreshLocked()
}

// rebuildLocked derives byID, order and the derived values from the vertex
// map alone. Vertices that cannot be ordered — a parent is missing from the
// map, or (transitively) could not be ordered itself — are dropped: the
// graph never holds a vertex without its parents.
func (g *Graph) rebuildLocked() {
	g.byID = make([]*Vertex, 0, len(g.vertices))
	for _, v := range g.vertices {
		v.pos = -1
		g.byID = append(g.byID, v)
	}
	slices.SortFunc(g.byID, compareID)
	g.order = g.topoOrderLocked()
	if len(g.order) < len(g.byID) {
		for i, v := range g.order {
			v.pos = i
		}
		g.dropLocked(func(v *Vertex) bool { return v.pos < 0 })
	}
	g.sources = g.sources[:0]
	for _, v := range g.order {
		if v.IsSource() {
			g.sources = append(g.sources, v.ID)
		}
	}
	g.rederiveLocked()
}

// dropLocked removes the vertices gone reports from the map, from both
// orders (which keep their relative order, so both stay valid) and from the
// survivors' child lists. Derived state is stale afterwards.
func (g *Graph) dropLocked(gone func(*Vertex) bool) {
	for _, v := range g.byID {
		if gone(v) {
			delete(g.vertices, v.ID)
		}
	}
	g.byID, g.order = slices.DeleteFunc(g.byID, gone), slices.DeleteFunc(g.order, gone)
	for _, v := range g.order {
		v.Children = slices.DeleteFunc(v.Children, func(c string) bool { return g.vertices[c] == nil })
	}
}

// TopoOrder returns all vertex IDs in a topological order (parents before
// children), deterministic for a given graph: it depends on the vertices
// and edges only, not on the order in which workloads were merged.
func (g *Graph) TopoOrder() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.byID))
	for _, v := range g.topoOrderLocked() {
		out = append(out, v.ID)
	}
	return out
}

// topoOrderLocked is Kahn's algorithm seeded in ID order (byID must be
// current). The maintained order is not a substitute where the order itself
// is observed: it is as valid, but it records merge history.
func (g *Graph) topoOrderLocked() []*Vertex {
	indeg := make(map[string]int, len(g.byID))
	queue := make([]*Vertex, 0, len(g.byID))
	for _, v := range g.byID {
		indeg[v.ID] = len(v.Parents)
		if len(v.Parents) == 0 {
			queue = append(queue, v)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, c := range queue[i].Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, g.vertices[c])
			}
		}
	}
	return queue
}
