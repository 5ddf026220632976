// Customop: extending the operation vocabulary (§4.2, Listing 2 of the
// paper). A user defines a Sample operation by implementing the Operation
// interface — name, parameter hash, output kind, and a run method — and
// the optimizer materializes and reuses its outputs like any built-in.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

// Sample draws N rows without replacement using RState, mirroring
// Listing 2's `Sample(DataOperation)` example.
type Sample struct {
	N      int
	RState int64
}

// Name implements repro.Operation.
func (o Sample) Name() string { return "user:sample" }

// Hash implements repro.Operation; it must cover every parameter so equal
// configurations collide in the Experiment Graph and different ones don't.
func (o Sample) Hash() string {
	return repro.OpHash("user:sample", fmt.Sprintf("n=%d|r_state=%d", o.N, o.RState))
}

// OutKind implements repro.Operation: sampling returns a Dataset.
func (o Sample) OutKind() repro.Kind { return repro.DatasetKind }

// Run implements repro.Operation — the `run` method of Listing 2. The
// lineage ID of each output column is minted from the operation hash and
// the IDs of every input column its values depend on, so the storage
// manager can deduplicate across artifacts: a seeded sample's rows depend
// only on the row count and the seed in the hash, so Gather is passed no
// selecting column (a filter would pass its predicate column).
func (o Sample) Run(inputs []repro.Artifact) (repro.Artifact, error) {
	ds, ok := inputs[0].(*repro.DatasetArtifact)
	if !ok {
		return nil, fmt.Errorf("sample: input is %T, want dataset", inputs[0])
	}
	frame := ds.Frame
	n := o.N
	if n > frame.NumRows() {
		n = frame.NumRows()
	}
	rng := rand.New(rand.NewSource(o.RState))
	idx := rng.Perm(frame.NumRows())[:n]
	return &repro.DatasetArtifact{Frame: frame.Gather(idx, o.Hash())}, nil
}

func main() {
	srv := repro.NewMemoryServer()
	client := repro.NewClient(srv)

	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i)
	}
	frame, err := repro.NewFrameFromColumns(repro.NewFloatColumn("x", vals))
	if err != nil {
		log.Fatal(err)
	}

	build := func() (*repro.Workload, *repro.Node) {
		w := repro.NewWorkload()
		src := w.AddSource("numbers", frame)
		sampled := w.Apply(src, Sample{N: 1000, RState: 42})
		mean := w.Apply(sampled, repro.AggregateCol{Col: "x", Kind: repro.AggMean})
		return w, mean
	}

	for run := 1; run <= 2; run++ {
		w, mean := build()
		res, err := client.Run(w.DAG)
		if err != nil {
			log.Fatal(err)
		}
		agg := mean.Content.(*repro.AggregateArtifact)
		fmt.Printf("run %d: mean=%.2f executed=%d reused=%d\n", run, agg.Value, res.Executed, res.Reused)
	}

	// A different random state is a different operation — no reuse of the
	// sample, but the source is shared.
	w := repro.NewWorkload()
	src := w.AddSource("numbers", frame)
	other := w.Apply(src, Sample{N: 1000, RState: 7})
	w.Apply(other, repro.AggregateCol{Col: "x", Kind: repro.AggMean})
	res, err := client.Run(w.DAG)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("different r_state: executed=%d reused=%d (no false sharing)\n", res.Executed, res.Reused)
}
