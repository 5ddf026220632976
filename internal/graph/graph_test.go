package graph

import (
	"fmt"
	"testing"
)

// stubOp is a minimal deterministic operation for DAG-shape tests.
type stubOp struct {
	name string
	kind Kind
}

func (o stubOp) Name() string  { return o.name }
func (o stubOp) Hash() string  { return OpHash(o.name, "") }
func (o stubOp) OutKind() Kind { return o.kind }
func (o stubOp) Run(inputs []Artifact) (Artifact, error) {
	return &AggregateArtifact{Value: float64(len(inputs))}, nil
}

func TestApplyInternsByIdentity(t *testing.T) {
	g := NewDAG()
	src := g.AddSource("train", nil)
	a := g.Apply(src, stubOp{"op1", DatasetKind})
	b := g.Apply(src, stubOp{"op1", DatasetKind})
	if a != b {
		t.Error("same op on same input must return the same node")
	}
	c := g.Apply(src, stubOp{"op2", DatasetKind})
	if c == a {
		t.Error("different ops must create different nodes")
	}
	if g.Len() != 3 { // src, a, c
		t.Errorf("Len=%d, want 3", g.Len())
	}
}

func TestSameStructureSameIDsAcrossDAGs(t *testing.T) {
	build := func() *Node {
		g := NewDAG()
		src := g.AddSource("train", nil)
		a := g.Apply(src, stubOp{"op1", DatasetKind})
		return g.Apply(a, stubOp{"op2", DatasetKind})
	}
	if build().ID != build().ID {
		t.Error("identical workloads must produce identical vertex IDs")
	}
}

func TestCombineCreatesSupernode(t *testing.T) {
	g := NewDAG()
	a := g.AddSource("a", nil)
	b := g.AddSource("b", nil)
	j := g.Combine(stubOp{"join", DatasetKind}, a, b)
	if len(j.Parents) != 1 || j.Parents[0].Kind != SupernodeKind {
		t.Fatalf("join output should hang off a supernode, got %v", j.Parents)
	}
	super := j.Parents[0]
	if len(super.Parents) != 2 {
		t.Errorf("supernode should have 2 parents, got %d", len(super.Parents))
	}
	// Join order matters: (b,a) must differ from (a,b).
	j2 := g.Combine(stubOp{"join", DatasetKind}, b, a)
	if j2.ID == j.ID {
		t.Error("operand order must affect identity")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := NewDAG()
	src := g.AddSource("s", nil)
	var last *Node = src
	for i := 0; i < 5; i++ {
		last = g.Apply(last, stubOp{fmt.Sprintf("op%d", i), DatasetKind})
	}
	order := g.TopoOrder()
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range g.Nodes() {
		for _, p := range n.Parents {
			if pos[p.ID] >= pos[n.ID] {
				t.Fatalf("parent %s after child %s", p.Name, n.Name)
			}
		}
	}
}

func TestTopoOrderRestrictedToTerminalAncestors(t *testing.T) {
	g := NewDAG()
	src := g.AddSource("s", nil)
	a := g.Apply(src, stubOp{"a", DatasetKind})
	g.Apply(src, stubOp{"unused", DatasetKind})
	order := g.TopoOrder(a)
	if len(order) != 2 {
		t.Errorf("restricted order has %d nodes, want 2 (src, a)", len(order))
	}
}

func TestTerminals(t *testing.T) {
	g := NewDAG()
	src := g.AddSource("s", nil)
	a := g.Apply(src, stubOp{"a", DatasetKind})
	b := g.Apply(src, stubOp{"b", DatasetKind})
	ts := g.Terminals()
	if len(ts) != 2 {
		t.Fatalf("got %d terminals, want 2", len(ts))
	}
	seen := map[string]bool{ts[0].ID: true, ts[1].ID: true}
	if !seen[a.ID] || !seen[b.ID] {
		t.Errorf("terminals wrong: %v", ts)
	}
}

func TestMarkComputed(t *testing.T) {
	g := NewDAG()
	src := g.AddSource("s", &AggregateArtifact{Value: 1})
	a := g.Apply(src, stubOp{"a", DatasetKind})
	a.Content = &AggregateArtifact{Value: 2} // as if a prior cell ran it
	g.Apply(a, stubOp{"b", DatasetKind})     // no content: not counted
	// Two content-bearing vertices, each counted once, on every call.
	for call := 1; call <= 2; call++ {
		if got := g.MarkComputed(); got != 2 {
			t.Errorf("call %d: MarkComputed() = %d, want 2", call, got)
		}
	}
	if !a.Computed {
		t.Error("node with content must be marked computed")
	}
	if !src.Computed {
		t.Error("source with content must be computed")
	}
}

func TestSourceContentSetsComputed(t *testing.T) {
	g := NewDAG()
	with := g.AddSource("x", &AggregateArtifact{Value: 1})
	without := g.AddSource("y", nil)
	if !with.Computed || without.Computed {
		t.Errorf("computed flags wrong: with=%v without=%v", with.Computed, without.Computed)
	}
}

func TestArtifactKindsAndSizes(t *testing.T) {
	agg := &AggregateArtifact{Value: 1, Text: "ab"}
	if agg.Kind() != AggregateKind || agg.SizeBytes() != 10 {
		t.Errorf("aggregate: kind=%v size=%d", agg.Kind(), agg.SizeBytes())
	}
	var ds DatasetArtifact
	if ds.SizeBytes() != 0 {
		t.Error("empty dataset artifact should have size 0")
	}
	var ma ModelArtifact
	if ma.SizeBytes() != 0 {
		t.Error("empty model artifact should have size 0")
	}
}

func TestDeriveNodeIDSensitivity(t *testing.T) {
	g := NewDAG()
	a := g.AddSource("a", nil)
	b := g.AddSource("b", nil)
	id1 := DeriveNodeID("op", []*Node{a})
	id2 := DeriveNodeID("op", []*Node{b})
	id3 := DeriveNodeID("op2", []*Node{a})
	if id1 == id2 || id1 == id3 {
		t.Error("node IDs must depend on op hash and parents")
	}
}
