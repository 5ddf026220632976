package eg

// The Experiment Graph grows monotonically as users execute workloads; in
// a long-lived collaborative environment its meta-data alone would
// eventually dominate memory. Prune bounds that growth by dropping
// vertices that are unlikely to ever be reused: unmaterialized,
// infrequent, and not seen for many workloads.

// PrunePolicy controls Graph.Prune.
type PrunePolicy struct {
	// MaxIdleWorkloads drops vertices not touched by the last N merged
	// workloads. Zero disables the idle criterion.
	MaxIdleWorkloads int
	// MinFrequency keeps any vertex that appeared in at least this many
	// workloads. Zero disables the frequency criterion.
	MinFrequency int
}

// Enabled reports whether the policy prunes anything at all.
func (p PrunePolicy) Enabled() bool {
	return p.MaxIdleWorkloads > 0 || p.MinFrequency > 0
}

// Prune removes vertices matching the policy. Sources, materialized
// vertices, and any vertex with a surviving descendant are always kept (a
// removed vertex must take its whole stale subtree with it so no dangling
// parent references remain). It returns the removed vertex IDs.
func (g *Graph) Prune(p PrunePolicy) []string {
	if !p.Enabled() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	remove := make(map[string]bool)
	var removed []string
	// Reverse topological order: decide children before parents, so "all
	// children removed" is known when a parent is considered. Any valid
	// order gives the same set, so the maintained one serves.
	for i := len(g.order) - 1; i >= 0; i-- {
		v := g.order[i]
		if v.IsSource() || v.Materialized {
			continue
		}
		if p.MinFrequency > 0 && v.Frequency >= p.MinFrequency {
			continue
		}
		if p.MaxIdleWorkloads > 0 && g.mergeCount-v.LastSeen <= p.MaxIdleWorkloads {
			continue
		}
		allChildrenGone := true
		for _, c := range v.Children {
			if !remove[c] {
				allChildrenGone = false
				break
			}
		}
		if allChildrenGone {
			remove[v.ID] = true
			removed = append(removed, v.ID)
		}
	}
	if len(removed) == 0 {
		return nil
	}
	g.dropLocked(func(v *Vertex) bool { return remove[v.ID] })
	// Garbage-collect column sizes no longer referenced.
	live := make(map[string]bool)
	for _, v := range g.order {
		for _, c := range v.Columns {
			live[c] = true
		}
	}
	for c := range g.colSizes {
		if !live[c] {
			delete(g.colSizes, c)
		}
	}
	// Survivors keep their Cr (it depends on ancestors, and a removed vertex
	// takes its descendants with it); p can fall where a model went.
	g.rederiveLocked()
	return removed
}
