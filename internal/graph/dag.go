package graph

import "fmt"

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
		Walk(append([]*Node(nil), terminals...), need, func(*Node) bool { return true })
	}
	// Kahn's algorithm over the needed subgraph, seeded in insertion
	// order for determinism. A parent listed twice contributes two edges,
	// and is decremented twice.
	indeg := make(map[string]int)
	children := make(map[string][]*Node)
	for _, n := range g.order {
		if !need[n.ID] {
			continue
		}
		for _, p := range n.Parents {
			if need[p.ID] {
				indeg[n.ID]++
				children[p.ID] = append(children[p.ID], n)
			}
		}
	}
	var queue []*Node
	for _, n := range g.order {
		if need[n.ID] && indeg[n.ID] == 0 {
			queue = append(queue, n)
		}
	}
	var out []*Node
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

// Walk goes up the DAG from the vertices of from, visiting each vertex at
// most once: it skips a vertex seen holds, adds it to seen, and goes on to
// its parents when visit returns true. from is the walk's stack: Walk pops
// from its end and pushes parents onto it, overwriting its elements, so a
// caller passes a slice it does not read again. The order is the stack's
// (depth-first, from the last vertex of from), which callers whose visits
// have side effects rely on; the caller's seen set lets two walks share
// what either has visited.
func Walk(from []*Node, seen map[string]bool, visit func(*Node) bool) {
	for len(from) > 0 {
		n := from[len(from)-1]
		from = from[:len(from)-1]
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		if visit(n) {
			from = append(from, n.Parents...)
		}
	}
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
