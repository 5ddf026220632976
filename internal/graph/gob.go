package graph

import (
	"encoding/gob"

	"repro/internal/data"
	"repro/internal/ml"
)

// RegisterGobTypes registers every concrete type that travels inside an
// Artifact interface value, for what still reads or writes artifacts as gob:
// persist's snapshot of the memory tier and the tier's version-1 blob files.
// These are the types that can be stored; the wire and the disk tier's blob
// files carry the same set in the tier's blob record.
func RegisterGobTypes() {
	gob.Register(&DatasetArtifact{})
	gob.Register(&AggregateArtifact{})
	gob.Register(&ModelArtifact{})
	gob.Register(&data.Frame{})
	gob.Register(&ml.LogisticRegression{})
	gob.Register(&ml.LinearRegression{})
	gob.Register(&ml.DecisionTree{})
	gob.Register(&ml.GradientBoostedTrees{})
	gob.Register(&ml.RandomForest{})
	gob.Register(&ml.KNN{})
	gob.Register(&ml.GaussianNB{})
	gob.Register(&ml.LinearSVM{})
}
