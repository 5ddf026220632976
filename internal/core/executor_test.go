package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reuse"
	"repro/internal/store"
)

// failingOp errors on Run — failure-injection for the executor.
type failingOp struct{ name string }

func (o failingOp) Name() string        { return o.name }
func (o failingOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o failingOp) OutKind() graph.Kind { return graph.DatasetKind }
func (o failingOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return nil, errors.New("injected failure")
}

type okOp struct{ name string }

func (o okOp) Name() string        { return o.name }
func (o okOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o okOp) OutKind() graph.Kind { return graph.AggregateKind }
func (o okOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{Value: 1}, nil
}

func TestExecutePropagatesOperationErrors(t *testing.T) {
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	w.Apply(src, failingOp{"boom"})
	srv := NewServer(store.New(cost.Memory()))
	_, err := Execute(w, nil, srv)
	if err == nil {
		t.Fatal("want error from failing op")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("error should carry the cause: %v", err)
	}
}

func TestExecuteFailsWhenPlanReusesMissingContent(t *testing.T) {
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(src, okOp{"a"})
	plan := &reuse.Plan{Reuse: map[string]bool{a.ID: true}}
	st := store.New(cost.Memory()) // empty: nothing to load
	srv := NewServer(st)
	_, err := Execute(w, plan, srv)
	if err == nil {
		t.Fatal("want error when reused content is missing")
	}
}

func TestExecuteSkipsBranchesOutsidePlan(t *testing.T) {
	// s -> a -> b(terminal); plan loads b, so a must not run.
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(src, failingOp{"must-not-run"})
	b := w.Apply(a, okOp{"b"})
	srv := NewServer(store.New(cost.Memory()))
	if err := srv.Store.Put(b.ID, &graph.AggregateArtifact{Value: 9}); err != nil {
		t.Fatal(err)
	}
	plan := &reuse.Plan{Reuse: map[string]bool{b.ID: true}}
	res, err := Execute(w, plan, srv)
	if err != nil {
		t.Fatalf("Execute: %v (the failing ancestor should be skipped)", err)
	}
	if res.Reused != 1 || res.Executed != 0 {
		t.Errorf("want pure reuse, got %+v", res)
	}
	if b.Content.(*graph.AggregateArtifact).Value != 9 {
		t.Error("loaded content wrong")
	}
}

func TestExecuteVertexWithoutOpOrContent(t *testing.T) {
	w := graph.NewDAG()
	n := &graph.Node{ID: "orphan", Kind: graph.DatasetKind, Name: "orphan"}
	w.Adopt(n)
	srv := NewServer(store.New(cost.Memory()))
	if _, err := Execute(w, nil, srv); err == nil {
		t.Fatal("want error for an orphan vertex without op or content")
	}
}
