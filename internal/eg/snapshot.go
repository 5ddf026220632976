package eg

import "maps"

// Snapshot is a serializable copy of the Experiment Graph's state, used by
// the persistence layer to survive server restarts.
type Snapshot struct {
	Vertices []*Vertex
	ColSizes map[string]int64
}

// Snapshot copies the graph state. Vertices are deep-copied, in ID order,
// so the snapshot is stable while the server keeps running.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := &Snapshot{ColSizes: maps.Clone(g.colSizes)}
	for _, v := range g.byID {
		cp := *v
		cp.Parents = append([]string(nil), v.Parents...)
		cp.Children = append([]string(nil), v.Children...)
		cp.Columns = append([]string(nil), v.Columns...)
		cp.Meta = maps.Clone(v.Meta)
		s.Vertices = append(s.Vertices, &cp)
	}
	return s
}

// FromSnapshot reconstructs a graph from a snapshot. Only the persisted
// attributes are read: the orders, Cr and p are rebuilt, and a vertex whose
// parents the snapshot does not hold is dropped with its descendants. The
// prune clock resumes at the largest LastSeen, the merge that last touched
// a vertex, so idle vertices stay as idle as they were.
func FromSnapshot(s *Snapshot) *Graph {
	g := New()
	if s == nil {
		return g
	}
	maps.Copy(g.colSizes, s.ColSizes)
	for _, v := range s.Vertices {
		cp := *v
		g.vertices[cp.ID] = &cp
		g.mergeCount = max(g.mergeCount, cp.LastSeen)
	}
	g.rebuildLocked()
	return g
}
