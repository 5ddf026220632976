package eg

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
	s := &Snapshot{ColSizes: make(map[string]int64, len(g.colSizes))}
	for id, sz := range g.colSizes {
		s.ColSizes[id] = sz
	}
	for _, v := range g.byID {
		cp := *v
		cp.Op = nil // operations are process-local; see Vertex.Op
		cp.Parents = append([]string(nil), v.Parents...)
		cp.Children = append([]string(nil), v.Children...)
		cp.Columns = append([]string(nil), v.Columns...)
		if v.Meta != nil {
			cp.Meta = make(map[string]string, len(v.Meta))
			for k, val := range v.Meta {
				cp.Meta[k] = val
			}
		}
		s.Vertices = append(s.Vertices, &cp)
	}
	return s
}

// FromSnapshot reconstructs a graph from a snapshot. Only the persisted
// attributes are read: the orders, Cr and p are rebuilt, and a vertex whose
// parents the snapshot does not hold is dropped with its descendants.
func FromSnapshot(s *Snapshot) *Graph {
	g := New()
	if s == nil {
		return g
	}
	for id, sz := range s.ColSizes {
		g.colSizes[id] = sz
	}
	for _, v := range s.Vertices {
		cp := *v
		g.vertices[cp.ID] = &cp
	}
	g.rebuildLocked()
	return g
}
