package eg

import "fmt"

// CheckOrder verifies the maintained order from inside: it holds every
// vertex once, at the position the vertex records, after all its parents,
// and no refresh is pending.
func (g *Graph) CheckOrder() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.order) != len(g.vertices) || len(g.byID) != len(g.vertices) {
		return fmt.Errorf("order %d, byID %d, vertices %d", len(g.order), len(g.byID), len(g.vertices))
	}
	if g.costPending != 0 || g.potPending != 0 {
		return fmt.Errorf("pending marks after refresh: cost %d, potential %d", g.costPending, g.potPending)
	}
	for i, v := range g.order {
		if g.vertices[v.ID] != v || v.pos != i || v.dirty != 0 {
			return fmt.Errorf("order[%d] = %s: pos %d, dirty %d", i, v.ID, v.pos, v.dirty)
		}
		for _, p := range v.Parents {
			if pv := g.vertices[p]; pv == nil || pv.pos >= i {
				return fmt.Errorf("parent %s of %s (position %d) is missing or not before it", p, v.ID, i)
			}
		}
	}
	return nil
}
