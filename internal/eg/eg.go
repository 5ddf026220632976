// Package eg implements the Experiment Graph (§3.2): the union of all
// executed workload DAGs. Vertices carry the paper's ⟨f, t, s⟩ attributes
// plus model quality q and artifact meta-data; edges carry operation hashes.
// The graph stores meta-data for every artifact ever executed; artifact
// content lives in the storage manager and only for the vertices the
// materializer selected. The paper's mat attribute is not kept here: whether
// content is stored is the store's to say, and the readers that need it
// (Prune) are handed it as a predicate.
package eg

import (
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
)

// Vertex is one artifact's bookkeeping record in the Experiment Graph.
type Vertex struct {
	ID   string
	Kind graph.Kind
	Name string

	// Frequency counts the workloads this artifact appeared in (f).
	Frequency int
	// ComputeTime is the measured execution time of the producing
	// operation (t).
	ComputeTime time.Duration
	// SizeBytes is the measured content size (s).
	SizeBytes int64
	// Quality is the evaluation score q for model vertices, 0 otherwise.
	Quality float64
	// External marks artifacts produced by third-party integrations that
	// the optimizer may never materialize (§4.2).
	External bool
	// Meta carries artifact meta-data (§3.2): for a trained model, its
	// learner kind under "model", which the warmstart search matches on. It
	// is the same whether the run arrived in process or over the wire.
	Meta map[string]string

	// Parents and Children are vertex IDs; OpHash identifies the edge
	// into this vertex (the producing operation).
	Parents  []string
	Children []string
	OpHash   string

	// Columns lists the lineage column IDs of dataset artifacts, used by
	// the storage-aware materializer's deduplication.
	Columns []string
	// LastSeen is the graph's merge counter when this vertex last
	// appeared in a workload (the idle clock of PrunePolicy).
	LastSeen int

	// Derived state, maintained by the graph (derived.go). Unexported, so
	// it never enters a gob snapshot; FromSnapshot rebuilds it.
	pos   int           // index in Graph.order
	cr    time.Duration // Cr(v)
	pot   float64       // p(v)
	dirty uint8         // costDirty | potDirty, pending in refreshLocked
}

// RecreationCost returns Cr(v) = t(v) + Σ over parents Cr(p): the cost of
// recomputing the artifact from the sources, summed over paths (a diamond
// counts its shared ancestor once per path, as Algorithm 2's forward pass
// does). The graph maintains it exactly across Merge and Prune.
func (v *Vertex) RecreationCost() time.Duration { return v.cr }

// Potential returns p(v): the quality of the best model reachable from v
// (§5.1), 0 when none is. The graph maintains it exactly across Merge and
// Prune.
func (v *Vertex) Potential() float64 { return v.pot }

// IsSource reports whether the vertex is a raw dataset.
func (v *Vertex) IsSource() bool { return len(v.Parents) == 0 && v.Kind != graph.SupernodeKind }

// Graph is the Experiment Graph. It is safe for concurrent use.
//
// Invariant: every parent of a vertex is in the graph. Merge and
// FromSnapshot refuse vertices that would break it, and Prune removes whole
// subtrees only. The maintained topological order (derived.go) rests on it.
type Graph struct {
	mu       sync.RWMutex
	vertices map[string]*Vertex
	// order holds every vertex parents-first: insertion order, which is
	// topological because a vertex is inserted after its parents. byID holds
	// every vertex sorted by ID.
	order []*Vertex
	byID  []*Vertex
	// costFrom/potFrom and the pending counts bound the sweep of
	// refreshLocked over order.
	costFrom, costPending int
	potFrom, potPending   int
	sources               []string
	// colSizes maps lineage column ID → content bytes, populated by the
	// updater so dedup sizing works without loading content.
	colSizes map[string]int64
	// mergeCount counts merged workloads (the Prune idle clock).
	mergeCount int
}

// New returns an empty Experiment Graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[string]*Vertex),
		colSizes: make(map[string]int64),
		potFrom:  -1,
	}
}

// Len returns the number of vertices.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices)
}

// Vertex returns a copy-safe pointer to the vertex with the given ID, or
// nil. Callers must treat the vertex as read-only; mutations go through
// Graph methods.
func (g *Graph) Vertex(id string) *Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.vertices[id]
}

// Has reports whether the vertex exists.
func (g *Graph) Has(id string) bool { return g.Vertex(id) != nil }

// Sources returns the source vertex IDs.
func (g *Graph) Sources() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]string(nil), g.sources...)
}

// Columns returns the column lineage IDs of a vertex, copied under the
// graph's read lock: nil for a vertex it does not hold or one without
// lineage.
func (g *Graph) Columns(id string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if v := g.vertices[id]; v != nil {
		return slices.Clone(v.Columns)
	}
	return nil
}

// externalOp detects operations whose outputs must never be materialized.
type externalOp interface{ External() bool }

// Merge unions an executed workload DAG into the Experiment Graph (§3.2,
// updater task two): it inserts missing vertices and edges, increments the
// frequency of every vertex the workload touched, refreshes measured compute
// times, sizes, and model qualities, and brings Cr(v) and p(v) up to date
// for exactly the vertices those changes reach. It returns the IDs of
// vertices that were newly inserted.
//
// Nodes must arrive parents-first, as graph.DAG builds them and as the
// remote decoder reads them (it refuses a node list in any other order). A
// node naming a parent the graph does not hold — unknown, or later in the
// DAG — is skipped, and so, in turn, is every node that descends from it:
// the graph never holds a vertex without its parents.
//
// A Frontier node stands for its vertex and every ancestor of it: the
// workload touched them all, so each is counted once, whether the walk up
// from a frontier vertex or a node of the DAG reaches it first — exactly
// what merging the same DAG with its ancestors would count. A frontier node
// whose vertex the graph does not hold is skipped: there is nothing to
// insert it under.
func (g *Graph) Merge(w *graph.DAG) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mergeCount++
	var inserted []string
	known := len(g.byID)
	// touched is what this merge has counted, kept when the workload has a
	// frontier (nil otherwise: every vertex then comes once, as its node).
	var touched map[*Vertex]bool
	if slices.ContainsFunc(w.Nodes(), func(n *graph.Node) bool { return n.Frontier }) {
		touched = make(map[*Vertex]bool, w.Len())
	}
	for _, n := range w.Nodes() {
		v, ok := g.vertices[n.ID]
		if !ok {
			if n.Frontier {
				continue
			}
			if v = g.insertLocked(n); v == nil {
				continue
			}
			inserted = append(inserted, v.ID)
		}
		if n.Frontier {
			g.touchAncestryLocked(v, touched)
		} else {
			g.touchLocked(v, touched)
		}
		// Refresh measurements from this execution when available. A changed
		// compute time reaches the Cr of the descendants, a changed model
		// quality the p of the ancestors.
		if n.ComputeTime > 0 && n.ComputeTime != v.ComputeTime {
			v.ComputeTime = n.ComputeTime
			g.markCost(v)
		}
		if n.SizeBytes > 0 {
			v.SizeBytes = n.SizeBytes
		}
		if n.Quality > 0 && n.Quality != v.Quality {
			v.Quality = n.Quality
			g.markPot(v)
		}
		if n.Content != nil {
			g.annotateContentLocked(v, n.Content)
		} else {
			g.annotateMetaLocked(v, n)
		}
	}
	g.sortInsertedLocked(known)
	g.refreshLocked()
	return inserted
}

// touchLocked counts one appearance of v in the workload being merged,
// unless touched (nil: the workload has no frontier, so every vertex comes
// once) says this merge already counted it. It reports whether it counted.
func (g *Graph) touchLocked(v *Vertex, touched map[*Vertex]bool) bool {
	if touched != nil {
		if touched[v] {
			return false
		}
		touched[v] = true
	}
	v.Frequency++
	v.LastSeen = g.mergeCount
	return true
}

// touchAncestryLocked counts v and every ancestor of it that this merge has
// not counted yet. It stops at a counted vertex: its ancestors were counted
// with it, as a node's parents precede it in the DAG and a frontier vertex's
// walk goes all the way up.
func (g *Graph) touchAncestryLocked(v *Vertex, touched map[*Vertex]bool) {
	stack := []*Vertex{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.touchLocked(u, touched) {
			continue
		}
		for _, p := range u.Parents {
			stack = append(stack, g.vertices[p])
		}
	}
}

// insertLocked adds the vertex of a workload node and links it under its
// parents. It returns nil, inserting nothing, when the graph does not hold
// every parent.
func (g *Graph) insertLocked(n *graph.Node) *Vertex {
	for _, p := range n.Parents {
		if g.vertices[p.ID] == nil {
			return nil
		}
	}
	v := &Vertex{ID: n.ID, Kind: n.Kind, Name: n.Name, pos: len(g.order)}
	for _, p := range n.Parents {
		v.Parents = append(v.Parents, p.ID)
		pv := g.vertices[p.ID]
		pv.Children = append(pv.Children, n.ID)
	}
	if n.Op != nil {
		v.OpHash = n.Op.Hash()
		if ext, isExt := n.Op.(externalOp); isExt && ext.External() {
			v.External = true
		}
	}
	g.vertices[v.ID] = v
	g.order = append(g.order, v)
	g.byID = append(g.byID, v) // put in its place by sortInsertedLocked
	if v.IsSource() {
		g.sources = append(g.sources, v.ID)
	}
	g.markCost(v)
	g.markPot(v)
	return v
}

// annotateContentLocked records column lineage and the learner kind from
// content: what annotateMetaLocked reads off a node that travels without it.
func (g *Graph) annotateContentLocked(v *Vertex, content graph.Artifact) {
	switch a := content.(type) {
	case *graph.DatasetArtifact:
		if a.Frame == nil {
			return
		}
		v.Columns = v.Columns[:0]
		for _, c := range a.Frame.Columns() {
			v.Columns = append(v.Columns, c.ID)
			g.colSizes[c.ID] = c.SizeBytes()
		}
	case *graph.ModelArtifact:
		if a.Model != nil {
			g.setMetaLocked(v, "model", a.Model.Kind())
		}
	}
}

// annotateMetaLocked records what a node that travels without content says
// of it (the remote-update path, where clients ship meta-data only): column
// lineage with per-column sizes, and the learner kind of a trained model.
func (g *Graph) annotateMetaLocked(v *Vertex, n *graph.Node) {
	if len(n.Columns) > 0 && len(n.Columns) == len(n.ColSizes) {
		v.Columns = append(v.Columns[:0], n.Columns...)
		for i, c := range n.Columns {
			g.colSizes[c] = n.ColSizes[i]
		}
	}
	if n.ModelKind != "" {
		g.setMetaLocked(v, "model", n.ModelKind)
	}
}

func (g *Graph) setMetaLocked(v *Vertex, key, value string) {
	if v.Meta == nil {
		v.Meta = make(map[string]string)
	}
	v.Meta[key] = value
}

// Vertices returns all vertices (read-only view), sorted by ID. The slice
// is the caller's own; the vertices are the graph's.
func (g *Graph) Vertices() []*Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return slices.Clone(g.byID)
}

// Visit calls fn with every vertex, sorted by ID, under the graph's read lock:
// the walk of Vertices without the copy. fn must treat the vertices as
// read-only and must not call back into the graph.
func (g *Graph) Visit(fn func(*Vertex)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, v := range g.byID {
		fn(v)
	}
}

// DedupedSize computes the physical bytes needed to store the given vertex
// set under column deduplication: unique dataset columns are counted once;
// non-dataset artifacts count their full size.
func (g *Graph) DedupedSize(ids []string) int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[string]bool)
	var n int64
	for _, id := range ids {
		v, ok := g.vertices[id]
		if !ok {
			continue
		}
		if len(v.Columns) == 0 {
			n += v.SizeBytes
			continue
		}
		for _, col := range v.Columns {
			if !seen[col] {
				seen[col] = true
				n += g.colSizes[col]
			}
		}
	}
	return n
}
