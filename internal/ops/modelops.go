package ops

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
)

// ModelSpec describes a learner by kind and hyperparameters; it is the
// hashable counterpart of a scikit-learn estimator constructor call.
type ModelSpec struct {
	// Kind is one of "logreg", "linreg", "tree", "gbt", "rf", "knn",
	// "nb", "svm".
	Kind string
	// Params holds hyperparameters by canonical names:
	// logreg/linreg: lr, max_iter, tol, l2
	// tree: depth; gbt: n_trees, lr, depth, subsample; rf: n_trees, depth
	// knn: k; svm: lambda, max_iter, tol; nb: (none)
	Params map[string]float64
	// Seed feeds the learner's RNG.
	Seed int64
}

// canonical renders the spec deterministically for hashing.
func (s ModelSpec) canonical() string {
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|seed=%d", s.Kind, s.Seed)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%g", k, s.Params[k])
	}
	return b.String()
}

func (s ModelSpec) p(name string, def float64) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Build constructs the learner the spec describes.
func (s ModelSpec) Build() (ml.Model, error) {
	switch s.Kind {
	case "logreg":
		m := ml.NewLogisticRegression(s.Seed)
		m.LearningRate = s.p("lr", 0.1)
		m.MaxIter = int(s.p("max_iter", 100))
		m.Tol = s.p("tol", 1e-6)
		m.L2 = s.p("l2", 0)
		return m, nil
	case "linreg":
		m := ml.NewLinearRegression(s.Seed)
		m.LearningRate = s.p("lr", 0.05)
		m.MaxIter = int(s.p("max_iter", 200))
		m.Tol = s.p("tol", 1e-8)
		m.L2 = s.p("l2", 0)
		return m, nil
	case "tree":
		m := ml.NewDecisionTree(s.Seed)
		m.MaxDepth = int(s.p("depth", 4))
		return m, nil
	case "gbt":
		m := ml.NewGBT(s.Seed)
		m.NTrees = int(s.p("n_trees", 50))
		m.LearningRate = s.p("lr", 0.1)
		m.MaxDepth = int(s.p("depth", 3))
		m.Subsample = s.p("subsample", 1)
		return m, nil
	case "rf":
		m := ml.NewRandomForest(s.Seed)
		m.NTrees = int(s.p("n_trees", 20))
		m.MaxDepth = int(s.p("depth", 6))
		return m, nil
	case "knn":
		m := ml.NewKNN()
		m.K = int(s.p("k", 5))
		return m, nil
	case "nb":
		return ml.NewGaussianNB(), nil
	case "svm":
		m := ml.NewLinearSVM(s.Seed)
		m.Lambda = s.p("lambda", 1e-3)
		m.MaxIter = int(s.p("max_iter", 100))
		m.Tol = s.p("tol", 1e-6)
		return m, nil
	default:
		return nil, fmt.Errorf("ops: unknown model kind %q", s.Kind)
	}
}

// Train fits a model on a dataset vertex and scores it on an internal
// held-out split; the score becomes the model vertex's quality attribute q
// (the paper's assumed evaluation function, §5). Train implements
// graph.WarmstartableOp.
type Train struct {
	Spec ModelSpec
	// Label is the target column.
	Label string
	// TestFrac is the held-out fraction for quality scoring (default
	// 0.25).
	TestFrac float64
	// Warmstart is the user's opt-in (§6.2: "we only warmstart a model
	// training operation when users explicitly request it").
	Warmstart bool

	donor ml.Model
	// lastWarmstarted records whether the most recent Run adopted a
	// donor; the executor copies it onto the model vertex.
	lastWarmstarted bool
}

// LastWarmstarted reports whether the most recent Run was warmstarted.
func (o *Train) LastWarmstarted() bool { return o.lastWarmstarted }

// Name implements graph.Operation.
func (o *Train) Name() string { return "train:" + o.Spec.Kind }

// Hash implements graph.Operation. The warmstart flag and donor are
// deliberately excluded: they change how training runs, not which artifact
// it denotes.
func (o *Train) Hash() string {
	return graph.OpHash("train", fmt.Sprintf("%s|%s|%g", o.Spec.canonical(), o.Label, o.TestFrac))
}

// OutKind implements graph.Operation.
func (o *Train) OutKind() graph.Kind { return graph.ModelKind }

// CanWarmstart implements graph.WarmstartableOp.
func (o *Train) CanWarmstart() bool { return o.Warmstart }

// ModelKind implements graph.WarmstartableOp.
func (o *Train) ModelKind() string { return o.Spec.Kind }

// SetDonor implements graph.WarmstartableOp.
func (o *Train) SetDonor(m ml.Model) { o.donor = m }

// Run implements graph.Operation.
func (o *Train) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	y, err := labelOf("train", f, o.Label)
	if err != nil {
		return nil, err
	}
	if f.NumRows() == 0 {
		return nil, fmt.Errorf("ops: train: %s has no rows", f)
	}
	features := numericFeatureNames(f, o.Label)
	tf := o.TestFrac
	if tf == 0 {
		tf = 0.25
	}
	train, test := ml.TrainTestSplit(len(y), tf, o.Spec.Seed)
	model, err := o.Spec.Build()
	if err != nil {
		return nil, err
	}
	warmstarted := false
	if o.donor != nil {
		if w, ok := model.(ml.Warmstarter); ok {
			warmstarted = w.WarmstartFrom(o.donor)
		}
	}
	cols := featureColumns(f, features)
	if err := model.Fit(cols, train, y); err != nil {
		return nil, err
	}
	yTest := make([]float64, len(test))
	for j, i := range test {
		yTest[j] = y[i]
	}
	quality := modelQuality(model.Kind(), yTest, model.Predict(cols, test))
	o.lastWarmstarted = warmstarted
	return &graph.ModelArtifact{Model: model, Quality: quality, Features: features}, nil
}

// featureColumns returns f's column for each name, nil for a name it lacks.
func featureColumns(f *data.Frame, names []string) []*data.Column {
	cols := make([]*data.Column, len(names))
	for j, name := range names {
		cols[j] = f.Column(name)
	}
	return cols
}

// scoreFrame scores every row of f with the model, which reads zeros for a
// feature the frame lacks (a one-hot category absent from a test split). The
// columns are also what tells the model how many rows there are, so it comes
// back short only when f has none of them.
func scoreFrame(ma *graph.ModelArtifact, f *data.Frame) ([]float64, error) {
	cols := featureColumns(f, ma.Features)
	pred := ma.Model.Predict(cols, nil)
	if len(pred) != f.NumRows() {
		return nil, fmt.Errorf("ops: %s has none of the model's %d features", f, len(cols))
	}
	return pred, nil
}

// modelQuality scores classifiers by AUC-ROC and regressors by 1/(1+RMSE),
// both in [0,1].
func modelQuality(kind string, y, pred []float64) float64 {
	if kind == "linreg" {
		return 1 / (1 + ml.RMSE(y, pred))
	}
	return ml.AUCROC(y, pred)
}

// Predict appends a "prediction" column scoring each row of the dataset
// with the model (multi-input: [model, dataset]). The column's ID is minted
// from the model's vertex ID and the dataset's column IDs, so the model
// input must carry its VertexID (the executor sets it).
type Predict struct{}

// Name implements graph.Operation.
func (o Predict) Name() string { return "predict" }

// Hash implements graph.Operation.
func (o Predict) Hash() string { return graph.OpHash("predict", "") }

// OutKind implements graph.Operation.
func (o Predict) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Predict) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	ma, f, err := modelAndFrame("predict", inputs)
	if err != nil {
		return nil, err
	}
	if ma.VertexID == "" {
		return nil, fmt.Errorf("ops: predict: the model input carries no vertex ID")
	}
	pred, err := scoreFrame(ma, f)
	if err != nil {
		return nil, err
	}
	nc := &data.Column{
		ID:     data.DeriveID(o.Hash(), append([]string{ma.VertexID}, f.ColumnIDs()...)...),
		Name:   "prediction",
		Type:   data.Float64,
		Floats: pred,
	}
	return asDataset(f.WithColumn(nc))
}

// Metric names an evaluation metric for Evaluate.
type Metric string

// Supported evaluation metrics.
const (
	AUC      Metric = "auc"
	Acc      Metric = "accuracy"
	LogLoss  Metric = "logloss"
	RMSEName Metric = "rmse"
)

// Evaluate scores a model against a labelled dataset, yielding an Aggregate
// (multi-input: [model, dataset]).
type Evaluate struct {
	Label  string
	Metric Metric
}

// Name implements graph.Operation.
func (o Evaluate) Name() string { return "evaluate:" + string(o.Metric) }

// Hash implements graph.Operation.
func (o Evaluate) Hash() string {
	return graph.OpHash("evaluate", fmt.Sprintf("%s|%s", o.Label, o.Metric))
}

// OutKind implements graph.Operation.
func (o Evaluate) OutKind() graph.Kind { return graph.AggregateKind }

// Run implements graph.Operation.
func (o Evaluate) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	ma, f, err := modelAndFrame("evaluate", inputs)
	if err != nil {
		return nil, err
	}
	y, err := labelOf("evaluate", f, o.Label)
	if err != nil {
		return nil, err
	}
	pred, err := scoreFrame(ma, f)
	if err != nil {
		return nil, err
	}
	var v float64
	switch o.Metric {
	case Acc:
		v = ml.Accuracy(y, pred)
	case LogLoss:
		v = ml.LogLoss(y, pred)
	case RMSEName:
		v = ml.RMSE(y, pred)
	default:
		v = ml.AUCROC(y, pred)
	}
	return &graph.AggregateArtifact{Value: v, Text: fmt.Sprintf("%s=%.4f", o.Metric, v)}, nil
}
