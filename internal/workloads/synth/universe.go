package synth

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/graph"
)

// Universe is a fixed random DAG of operations from which overlapping
// workloads are drawn: what a stream of collaborators' scripts over the same
// datasets looks like to the Experiment Graph. Generate's operations are
// unique to their seed, so its workloads share nothing; two workloads of one
// universe share every vertex both reach, which is then re-executed with
// another measured time, or retrained to a better or a worse score. A fifth
// of the operations train models, a sixth take two inputs (through a
// supernode), and inputs are picked with a bias toward recent operations, so
// diamonds are common.
type Universe struct {
	seed int64
	// inputs[i] lists the operations op i reads, all below i; none for a
	// source. model[i] marks training operations.
	inputs [][]int
	model  []bool
}

// universeSources is the number of raw datasets every universe starts from.
const universeSources = 4

// NewUniverse draws a universe of n operations (at least one beyond the
// sources). The seed also namespaces the operation names, so universes with
// different seeds do not collide in one Experiment Graph.
func NewUniverse(seed int64, n int) *Universe {
	if n <= universeSources {
		n = universeSources + 1
	}
	rng := rand.New(rand.NewSource(seed))
	u := &Universe{seed: seed, inputs: make([][]int, n), model: make([]bool, n)}
	pick := func(i int) int { return min(i-1, int(float64(i)*(1-math.Pow(rng.Float64(), 4)))) }
	for i := universeSources; i < n; i++ {
		u.inputs[i] = []int{pick(i)}
		if b := pick(i); rng.Float64() < 0.15 && b != u.inputs[i][0] {
			u.inputs[i] = append(u.inputs[i], b)
		}
		u.model[i] = rng.Float64() < 0.2
	}
	return u
}

// Len returns the number of operations, sources included.
func (u *Universe) Len() int { return len(u.inputs) }

type universeOp struct {
	name string
	kind graph.Kind
}

func (o universeOp) Name() string        { return o.name }
func (o universeOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o universeOp) OutKind() graph.Kind { return o.kind }
func (o universeOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// Workload builds the workload that computes the target operations (every
// operation when none is named): their ancestor closure, parents first,
// annotated as executed with compute times, sizes and model qualities drawn
// from rng. One vertex in ten carries no measurement, as a loaded or
// client-held vertex does.
func (u *Universe) Workload(rng *rand.Rand, targets ...int) *graph.DAG {
	need := make([]bool, u.Len())
	var mark func(i int)
	mark = func(i int) {
		if need[i] {
			return
		}
		need[i] = true
		for _, p := range u.inputs[i] {
			mark(p)
		}
	}
	for _, t := range targets {
		mark(t)
	}
	w := graph.NewDAG()
	nodes := make([]*graph.Node, u.Len())
	for i := range u.inputs {
		if len(targets) > 0 && !need[i] {
			continue
		}
		if len(u.inputs[i]) == 0 {
			nodes[i] = w.AddSource(fmt.Sprintf("u%d-src%d", u.seed, i), &graph.AggregateArtifact{})
			continue
		}
		op := universeOp{name: fmt.Sprintf("u%d-op%d", u.seed, i), kind: graph.DatasetKind}
		if u.model[i] {
			op.kind = graph.ModelKind
		}
		var n *graph.Node
		if in := u.inputs[i]; len(in) == 2 {
			n = w.Combine(op, nodes[in[0]], nodes[in[1]])
		} else {
			n = w.Apply(nodes[in[0]], op)
		}
		nodes[i] = n
		if rng.Intn(10) == 0 {
			continue
		}
		n.ComputeTime = time.Duration(1+rng.Intn(2000)) * time.Millisecond
		n.SizeBytes = int64(1<<10 + rng.Intn(1<<20))
		if u.model[i] {
			n.Quality = rng.Float64()
		}
	}
	return w
}
