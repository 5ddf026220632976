package graph

import (
	"encoding/gob"

	"repro/internal/data"
	"repro/internal/ml"
)

// RegisterGobTypes registers every concrete type that travels inside an
// Artifact interface value, for the packages that gob-encode artifacts (the
// wire in internal/remote, the blob files in internal/tier). A new model or
// transformer type is one line here.
func RegisterGobTypes() {
	gob.Register(&DatasetArtifact{})
	gob.Register(&AggregateArtifact{})
	gob.Register(&ModelArtifact{})
	gob.Register(&TransformerArtifact{})
	gob.Register(&data.Frame{})
	gob.Register(&ml.LogisticRegression{})
	gob.Register(&ml.LinearRegression{})
	gob.Register(&ml.DecisionTree{})
	gob.Register(&ml.GradientBoostedTrees{})
	gob.Register(&ml.RandomForest{})
	gob.Register(&ml.KNN{})
	gob.Register(&ml.GaussianNB{})
	gob.Register(&ml.LinearSVM{})
	gob.Register(&ml.KMeans{})
	gob.Register(&ml.StandardScaler{})
	gob.Register(&ml.MinMaxScaler{})
	gob.Register(&ml.SelectKBest{})
	gob.Register(&ml.PCA{})
}
