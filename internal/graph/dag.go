package graph

import (
	"fmt"
	"sort"
)

// DAG is one workload's directed acyclic graph. Nodes are interned by ID:
// applying the same operation to the same inputs twice yields the same
// *Node, which is how redundant operations inside a single script collapse
// (the paper's local-pruning observation in §7.2).
type DAG struct {
	nodes map[string]*Node
	// order preserves insertion order for deterministic iteration.
	order []*Node
}

// NewDAG returns an empty workload DAG.
func NewDAG() *DAG {
	return &DAG{nodes: make(map[string]*Node)}
}

// Nodes returns all vertices in insertion order. The slice must not be
// mutated.
func (g *DAG) Nodes() []*Node { return g.order }

// Node returns the vertex with the given ID, or nil.
func (g *DAG) Node(id string) *Node { return g.nodes[id] }

// Len returns the vertex count.
func (g *DAG) Len() int { return len(g.order) }

// Sources returns the source vertices in insertion order.
func (g *DAG) Sources() []*Node {
	var out []*Node
	for _, n := range g.order {
		if n.IsSource() {
			out = append(out, n)
		}
	}
	return out
}

// intern registers n unless a node with the same ID exists, in which case
// the existing node is returned.
func (g *DAG) intern(n *Node) *Node {
	if existing, ok := g.nodes[n.ID]; ok {
		return existing
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n)
	return n
}

// Adopt interns a fully constructed node — used when reconstructing a DAG
// from wire metadata, where node IDs were computed by the sender. If a
// node with the same ID exists, the existing node is returned.
func (g *DAG) Adopt(n *Node) *Node { return g.intern(n) }

// AddSource registers (or returns) the source vertex for a named raw
// dataset whose content is already present. The content may be nil when the
// DAG is only being described (e.g. on the server side).
func (g *DAG) AddSource(name string, content Artifact) *Node {
	n := &Node{
		ID:       SourceID(name),
		Kind:     DatasetKind,
		Name:     name,
		Computed: content != nil,
		Content:  content,
	}
	if content != nil {
		n.SizeBytes = content.SizeBytes()
	}
	return g.intern(n)
}

// Apply derives the child of parent under op, interning it. It is the
// single-input edge constructor.
func (g *DAG) Apply(parent *Node, op Operation) *Node {
	return g.applyMulti(op, []*Node{parent})
}

// Combine derives the child of several parents under a multi-input op,
// inserting the supernode per §4.1.
func (g *DAG) Combine(op Operation, parents ...*Node) *Node {
	super := &Node{
		ID:      DeriveNodeID("supernode", parents),
		Kind:    SupernodeKind,
		Name:    "super(" + op.Name() + ")",
		Parents: parents,
	}
	super = g.intern(super)
	return g.applyMulti(op, []*Node{super})
}

func (g *DAG) applyMulti(op Operation, parents []*Node) *Node {
	n := &Node{
		ID:      DeriveNodeID(op.Hash(), parents),
		Kind:    op.OutKind(),
		Name:    op.Name(),
		Op:      op,
		Parents: parents,
	}
	return g.intern(n)
}

// TopoOrder returns the ancestors of the given terminal vertices (the
// terminals included) in a topological order that is deterministic for a
// given DAG. If terminals is empty, all vertices are ordered.
func (g *DAG) TopoOrder(terminals ...*Node) []*Node {
	need := make(map[string]bool)
	if len(terminals) == 0 {
		for id := range g.nodes {
			need[id] = true
		}
	} else {
		var mark func(n *Node)
		mark = func(n *Node) {
			if need[n.ID] {
				return
			}
			need[n.ID] = true
			for _, p := range n.Parents {
				mark(p)
			}
		}
		for _, t := range terminals {
			mark(t)
		}
	}
	// Kahn's algorithm over the needed subgraph, seeded in insertion
	// order for determinism.
	indeg, children := g.Indegrees(need)
	var out []*Node
	queue := g.Ready(need, indeg)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, c := range children[n.ID] {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(need) {
		// A cycle would be a construction bug; fail loudly.
		panic(fmt.Sprintf("graph: cycle detected: ordered %d of %d vertices", len(out), len(need)))
	}
	return out
}

// Indegrees computes, for the sub-DAG induced by the need set (the whole
// DAG when need is nil), each vertex's count of in-subgraph parent edges
// and the child adjacency, both keyed by vertex ID. A parent listed twice
// contributes two edges, mirroring the decrements a scheduler performs.
// Schedulers (TopoOrder, the parallel executor) consume this as the
// dependency-counting state.
func (g *DAG) Indegrees(need map[string]bool) (indeg map[string]int, children map[string][]*Node) {
	indeg = make(map[string]int)
	children = make(map[string][]*Node)
	for _, n := range g.order {
		if need != nil && !need[n.ID] {
			continue
		}
		for _, p := range n.Parents {
			if need != nil && !need[p.ID] {
				continue
			}
			indeg[n.ID]++
			children[p.ID] = append(children[p.ID], n)
		}
	}
	return indeg, children
}

// Ready returns the vertices of the sub-DAG induced by need (the whole DAG
// when nil) whose indegree is zero, in insertion order — the initial ready
// set of a dependency-counting scheduler. indeg is the map produced by
// Indegrees for the same need set.
func (g *DAG) Ready(need map[string]bool, indeg map[string]int) []*Node {
	var out []*Node
	for _, n := range g.order {
		if need != nil && !need[n.ID] {
			continue
		}
		if indeg[n.ID] == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Terminals returns vertices with no children among the DAG's nodes, the
// implicit workload outputs.
func (g *DAG) Terminals() []*Node {
	hasChild := make(map[string]bool)
	for _, n := range g.order {
		for _, p := range n.Parents {
			hasChild[p.ID] = true
		}
	}
	var out []*Node
	for _, n := range g.order {
		if !hasChild[n.ID] {
			out = append(out, n)
		}
	}
	return out
}

// MarkComputed runs the local pruner (§3.1): every vertex whose content is
// already present is marked Computed so the optimizer assigns it Ci=0.
// Returns the number of Computed vertices, each counted once.
func (g *DAG) MarkComputed() int {
	count := 0
	for _, n := range g.order {
		if n.Content != nil {
			n.Computed = true
		}
		if n.Computed {
			count++
		}
	}
	return count
}

// Stats summarizes a DAG for reporting: vertex count per kind and total
// content bytes of computed vertices.
func (g *DAG) Stats() map[string]int {
	out := make(map[string]int)
	for _, n := range g.order {
		out[n.Kind.String()]++
	}
	return out
}

// IDs returns the sorted vertex IDs (diagnostics, test assertions).
func (g *DAG) IDs() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
