// Package graph implements the workload-DAG data model of §4 of the paper:
// vertices are artifacts (Dataset, Aggregate, Model, plus Supernodes for
// multi-input operations), edges are operations. Node identities are lineage
// hashes — H(opHash ‖ parent IDs) — so the union of many workload DAGs (the
// Experiment Graph) can detect shared artifacts by ID equality alone.
package graph

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/ml"
)

// Kind enumerates vertex types (§4.1).
type Kind uint8

const (
	// DatasetKind vertices hold a dataframe.
	DatasetKind Kind = iota
	// AggregateKind vertices hold a scalar or small collection.
	AggregateKind
	// ModelKind vertices hold a trained ML model.
	ModelKind
	// SupernodeKind vertices carry no data; they fan multiple inputs
	// into one multi-input operation.
	SupernodeKind
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case DatasetKind:
		return "dataset"
	case AggregateKind:
		return "aggregate"
	case ModelKind:
		return "model"
	case SupernodeKind:
		return "supernode"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Artifact is the content of a vertex: a dataset, an aggregate, or a model.
type Artifact interface {
	// Kind reports which vertex type the artifact belongs on.
	Kind() Kind
	// SizeBytes is the storage footprint of the content.
	SizeBytes() int64
}

// DatasetArtifact wraps a dataframe.
type DatasetArtifact struct {
	Frame *data.Frame
}

// Kind implements Artifact.
func (a *DatasetArtifact) Kind() Kind { return DatasetKind }

// SizeBytes implements Artifact.
func (a *DatasetArtifact) SizeBytes() int64 {
	if a.Frame == nil {
		return 0
	}
	return a.Frame.SizeBytes()
}

// AggregateArtifact wraps a scalar (and optional text rendering), e.g. an
// evaluation score or a row count.
type AggregateArtifact struct {
	Value float64
	Text  string
}

// Kind implements Artifact.
func (a *AggregateArtifact) Kind() Kind { return AggregateKind }

// SizeBytes implements Artifact.
func (a *AggregateArtifact) SizeBytes() int64 { return 8 + int64(len(a.Text)) }

// ModelArtifact wraps a fitted model together with its evaluation score
// (the paper's q attribute, 0 ≤ q ≤ 1) and the feature names it expects.
type ModelArtifact struct {
	Model    ml.Model
	Quality  float64
	Features []string

	// VertexID is the ID of the model vertex this artifact is the content
	// of, set only on the copy the executor hands an operation as an input
	// (a prediction's lineage ID names its model by it). It is runtime
	// state: no codec writes or reads it.
	VertexID string
}

// Kind implements Artifact.
func (a *ModelArtifact) Kind() Kind { return ModelKind }

// SizeBytes implements Artifact.
func (a *ModelArtifact) SizeBytes() int64 {
	if a.Model == nil {
		return 0
	}
	var n int64
	for _, f := range a.Features {
		n += int64(len(f))
	}
	return a.Model.SizeBytes() + n
}
