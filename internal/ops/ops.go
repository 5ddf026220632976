// Package ops provides the concrete operation vocabulary of the workload
// DSL: data-preprocessing operations (§4.1 type 1) and model-training
// operations (§4.1 type 2).
//
// An operation is a plain parameter struct whose Hash() covers every
// parameter, so identical operations in different workloads produce
// identical edge hashes and therefore identical vertex IDs in the
// Experiment Graph. Its Run applies those parameters through one adapter
// of its input shape — oneFrame, twoFrames, frames or modelAndFrame, which
// check the number and the kinds of the inputs — to a kernel of
// internal/data or internal/ml, and asDataset wraps a frame result as the
// op's output.
package ops

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/graph"
)

// frameOf returns the frame of a dataset input.
func frameOf(a graph.Artifact) (*data.Frame, error) {
	d, ok := a.(*graph.DatasetArtifact)
	if !ok || d.Frame == nil {
		return nil, fmt.Errorf("ops: input is %T, want dataset", a)
	}
	return d.Frame, nil
}

// oneFrame is the adapter of the operations that read one dataset: it
// returns the frame of inputs' only element.
func oneFrame(inputs []graph.Artifact) (*data.Frame, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("ops: got %d inputs, want 1", len(inputs))
	}
	return frameOf(inputs[0])
}

// frames is the adapter of the operations that combine any number of
// datasets: it returns the frames of inputs in order, at least two.
func frames(op string, inputs []graph.Artifact) ([]*data.Frame, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("ops: %s: got %d inputs, want >= 2", op, len(inputs))
	}
	out := make([]*data.Frame, len(inputs))
	for i, in := range inputs {
		f, err := frameOf(in)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// twoFrames is the adapter of the operations that combine two datasets:
// it returns the frames of inputs, exactly two, in order.
func twoFrames(op string, inputs []graph.Artifact) (l, r *data.Frame, err error) {
	if len(inputs) != 2 {
		return nil, nil, fmt.Errorf("ops: %s: got %d inputs, want 2", op, len(inputs))
	}
	in, err := frames(op, inputs)
	if err != nil {
		return nil, nil, err
	}
	return in[0], in[1], nil
}

// modelAndFrame is the adapter of the operations that apply a model to a
// dataset: inputs must be exactly [model, dataset].
func modelAndFrame(op string, inputs []graph.Artifact) (*graph.ModelArtifact, *data.Frame, error) {
	if len(inputs) != 2 {
		return nil, nil, fmt.Errorf("ops: %s: got %d inputs, want [model, dataset]", op, len(inputs))
	}
	ma, ok := inputs[0].(*graph.ModelArtifact)
	if !ok {
		return nil, nil, fmt.Errorf("ops: %s: first input is %T, want model", op, inputs[0])
	}
	f, err := frameOf(inputs[1])
	return ma, f, err
}

// asDataset wraps a kernel's frame result as an operation's output.
func asDataset(f *data.Frame, err error) (graph.Artifact, error) {
	if err != nil {
		return nil, err
	}
	return &graph.DatasetArtifact{Frame: f}, nil
}

// labelOf returns f's column label as a float vector, or an error naming op
// when f has no such column.
func labelOf(op string, f *data.Frame, label string) ([]float64, error) {
	c := f.Column(label)
	if c == nil {
		return nil, fmt.Errorf("ops: %s: no label column %q", op, label)
	}
	y := make([]float64, c.Len())
	for i := range y {
		y[i] = c.Float(i)
	}
	return y, nil
}
