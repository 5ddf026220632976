// Package repro is the public API of this reproduction of "Optimizing
// Machine Learning Workloads in Collaborative Environments" (SIGMOD 2020).
//
// The library optimizes repeated and modified executions of ML workloads
// in a collaborative setting. Users express a workload as a DAG of
// artifacts (datasets, aggregates, models) connected by operations; a
// shared server maintains an Experiment Graph (EG) of every executed
// workload, materializes the artifacts most likely to be reused under a
// storage budget (§5 of the paper), and rewrites incoming DAGs with a
// linear-time reuse algorithm (§6) so clients load artifacts instead of
// recomputing them. Model-training operations can additionally be
// warmstarted from previously trained models.
//
// Minimal usage:
//
//	srv := repro.NewMemoryServer(repro.WithBudget(1 << 30))
//	client := repro.NewClient(srv)
//
//	w := repro.NewWorkload()
//	train := w.AddCSVSource("train.csv", frame)
//	clean := w.Apply(train, repro.FillNA{})
//	model := w.Apply(clean, &repro.Train{
//		Spec:  repro.ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 30}},
//		Label: "y",
//	})
//	_ = model
//	result, err := client.Run(w.DAG)
//
// Re-running the same (or a modified) workload through the same server
// reuses the materialized artifacts automatically.
package repro

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ml"
	"repro/internal/ops"
	"repro/internal/remote"
	"repro/internal/reuse"
	"repro/internal/store"
)

// Core data-model types.
type (
	// Frame is the columnar dataframe type.
	Frame = data.Frame
	// Column is one typed, lineage-tracked column.
	Column = data.Column
	// DAG is a workload graph.
	DAG = graph.DAG
	// Node is a workload vertex.
	Node = graph.Node
	// Artifact is vertex content: dataset, aggregate, or model.
	Artifact = graph.Artifact
	// DatasetArtifact wraps a Frame as vertex content.
	DatasetArtifact = graph.DatasetArtifact
	// AggregateArtifact wraps a scalar as vertex content.
	AggregateArtifact = graph.AggregateArtifact
	// ModelArtifact wraps a trained model as vertex content.
	ModelArtifact = graph.ModelArtifact
	// Operation is a workload edge.
	Operation = graph.Operation
	// Kind is a vertex/artifact kind.
	Kind = graph.Kind
)

// Orchestration types.
type (
	// Server owns the Experiment Graph, artifact store, materializer,
	// and reuse planner.
	Server = core.Server
	// Client runs workloads against a server.
	Client = core.Client
	// RunResult reports a workload execution.
	RunResult = core.RunResult
	// ServerOption configures NewServer.
	ServerOption = core.ServerOption
	// StorageProfile models where EG content lives (memory/disk/remote).
	StorageProfile = cost.Profile
)

// Server options, re-exported from internal/core.
var (
	// WithBudget sets the materialization budget in bytes.
	WithBudget = core.WithBudget
	// WithStrategy sets the materialization strategy.
	WithStrategy = core.WithStrategy
	// WithPlanner sets the reuse planner.
	WithPlanner = core.WithPlanner
	// WithWarmstart enables warmstart donor search.
	WithWarmstart = core.WithWarmstart
)

// Storage profiles.
var (
	// MemoryProfile is an in-process EG (the paper's setup).
	MemoryProfile = cost.Memory
	// DiskProfile is an SSD-resident EG.
	DiskProfile = cost.Disk
	// RemoteProfile is an EG behind a network hop.
	RemoteProfile = cost.Remote
)

// NewMemoryServer builds a server whose artifact store lives in memory.
func NewMemoryServer(opts ...ServerOption) *Server {
	return core.NewServer(store.New(cost.Memory()), opts...)
}

// NewServerWithProfile builds a server with an explicit storage profile.
func NewServerWithProfile(p StorageProfile, opts ...ServerOption) *Server {
	return core.NewServer(store.New(p), opts...)
}

// NewClient binds a client to an optimizer — an in-process *Server or a
// remote optimizer from NewRemoteOptimizer.
func NewClient(srv core.Optimizer) *Client { return core.NewClient(srv) }

// NewHTTPHandler exposes a server over the HTTP protocol (what the collabd
// daemon serves).
func NewHTTPHandler(srv *Server) http.Handler { return remote.NewHandler(srv) }

// NewRemoteOptimizer connects to a collabd server at baseURL; pass the
// result to NewClient. Transfer costs are modeled with RemoteProfile.
func NewRemoteOptimizer(baseURL string) *remote.Client {
	return remote.NewClient(baseURL, cost.Remote())
}

// Materialization strategies (§5) for WithStrategy.
type (
	// MaterializeConfig carries α and the storage profile.
	MaterializeConfig = materialize.Config
	// MaterializeStrategy selects artifacts to store.
	MaterializeStrategy = materialize.Strategy
)

// Strategy constructors.
var (
	// NewGreedyMaterializer is Algorithm 1 (heuristics-based, "HM").
	NewGreedyMaterializer = materialize.NewGreedy
	// NewStorageAwareMaterializer is the §5.3 deduplicating strategy.
	NewStorageAwareMaterializer = materialize.NewStorageAware
	// NewHelixMaterializer is the Helix baseline.
	NewHelixMaterializer = materialize.NewHelix
	// NewAllMaterializer stores everything.
	NewAllMaterializer = materialize.NewAll
)

// Reuse planners (§6) for WithPlanner.
type (
	// LinearReuse is the paper's linear-time algorithm.
	LinearReuse = reuse.Linear
	// HelixReuse is the polynomial-time max-flow baseline.
	HelixReuse = reuse.Helix
	// AllMaterializedReuse loads every materialized artifact.
	AllMaterializedReuse = reuse.AllMaterialized
	// AllComputeReuse disables reuse.
	AllComputeReuse = reuse.AllCompute
)

// Workload wraps a DAG with convenience constructors.
type Workload struct {
	// DAG is the underlying workload graph, passed to Client.Run.
	DAG *DAG
}

// NewWorkload returns an empty workload.
func NewWorkload() *Workload { return &Workload{DAG: graph.NewDAG()} }

// AddSource registers a raw dataset with content.
func (w *Workload) AddSource(name string, frame *Frame) *Node {
	return w.DAG.AddSource(name, &graph.DatasetArtifact{Frame: frame})
}

// AddCSVSource is AddSource under its spiritual name for frames parsed
// from CSV files.
func (w *Workload) AddCSVSource(name string, frame *Frame) *Node {
	return w.AddSource(name, frame)
}

// Apply derives a new vertex by applying op to parent.
func (w *Workload) Apply(parent *Node, op Operation) *Node {
	return w.DAG.Apply(parent, op)
}

// Combine derives a new vertex from a multi-input operation.
func (w *Workload) Combine(op Operation, parents ...*Node) *Node {
	return w.DAG.Combine(op, parents...)
}

// ReadCSVFile parses a CSV file into a Frame with inferred column types.
func ReadCSVFile(path string) (*Frame, error) { return data.ReadCSVFile(path) }

// Column constructors.
var (
	// NewFloatColumn builds a float64 column (NaN encodes missing).
	NewFloatColumn = data.NewFloatColumn
	// NewIntColumn builds an int64 column.
	NewIntColumn = data.NewIntColumn
	// NewStringColumn builds a string column ("" encodes missing).
	NewStringColumn = data.NewStringColumn
	// NewBoolColumn builds a bool column.
	NewBoolColumn = data.NewBoolColumn
)

// NewFrameFromColumns assembles a dataframe from equal-length columns.
func NewFrameFromColumns(cols ...*Column) (*Frame, error) {
	return data.NewFrame(cols...)
}

// OpHash builds the canonical operation hash from a name and a
// deterministic parameter rendering. Custom operations use it to implement
// Operation.Hash (§4.2, Listing 2).
func OpHash(name, params string) string { return graph.OpHash(name, params) }

// DeriveColumnID mints the lineage ID of a column an operation produces;
// custom operations use it so the storage-aware materializer can
// deduplicate their outputs. Equal IDs must mean equal values, so the rule
// is: pass the ID of every input column the values depend on — for a row
// selection, the columns that chose the rows as well as the column's own —
// and let opHash cover every parameter. Leave the column's name out of
// both: the same derivation under two names is then stored once. With one
// input column the ID is the one this function has always returned.
func DeriveColumnID(opHash string, inputColumnIDs ...string) string {
	return data.DeriveID(opHash, inputColumnIDs...)
}

// Artifact kinds, for custom operations' OutKind.
const (
	DatasetKind   = graph.DatasetKind
	AggregateKind = graph.AggregateKind
	ModelKind     = graph.ModelKind
)

// Operations vocabulary, re-exported from internal/ops. Data preprocessing:
type (
	// Select keeps named columns.
	Select = ops.Select
	// Drop removes named columns.
	Drop = ops.Drop
	// Filter keeps rows matching a comparison.
	Filter = ops.Filter
	// MapCol applies a unary function to one column.
	MapCol = ops.MapCol
	// Derive appends a row-wise combination of columns.
	Derive = ops.Derive
	// FillNA imputes missing values with column means.
	FillNA = ops.FillNA
	// OneHot expands a categorical column.
	OneHot = ops.OneHot
	// Sample draws rows without replacement.
	Sample = ops.Sample
	// GroupByAgg groups and aggregates.
	GroupByAgg = ops.GroupByAgg
	// Join hash-joins two datasets (use Combine).
	Join = ops.Join
	// Concat concatenates columns of datasets (use Combine).
	Concat = ops.Concat
	// Align keeps columns common to two datasets (use Combine).
	Align = ops.Align
	// AggregateCol reduces a column to a scalar.
	AggregateCol = ops.AggregateCol
	// CountVectorize builds token-count features from text.
	CountVectorize = ops.CountVectorize
	// ScaleTransform standardizes numeric features.
	ScaleTransform = ops.ScaleTransform
	// SelectKBest keeps the K most label-correlated features.
	SelectKBest = ops.SelectKBest
	// PCATransform projects onto principal components.
	PCATransform = ops.PCATransform
	// KDE2D is an external (non-materializable) visualization.
	KDE2D = ops.KDE2D
)

// Model training and scoring:
type (
	// Train fits a model and scores it on a held-out split.
	Train = ops.Train
	// ModelSpec names a learner and its hyperparameters.
	ModelSpec = ops.ModelSpec
	// Predict scores a dataset with a model (use Combine).
	Predict = ops.Predict
	// Evaluate computes a metric of a model on a dataset (use Combine).
	Evaluate = ops.Evaluate
)

// ColumnAgg names one group-by aggregation (column + function).
type ColumnAgg = data.Agg

// Aggregate functions for GroupByAgg and AggregateCol.
const (
	AggMean  = data.AggMean
	AggSum   = data.AggSum
	AggMin   = data.AggMin
	AggMax   = data.AggMax
	AggCount = data.AggCount
)

// Join kinds.
const (
	InnerJoin = data.Inner
	LeftJoin  = data.Left
)

// Learner interfaces for custom extensions.
type (
	// Model is the trainable-learner interface: a learner fits and scores
	// the given rows of a frame's feature columns, a nil column reading as
	// zeros.
	Model = ml.Model
	// Warmstarter marks models that can adopt donor parameters.
	Warmstarter = ml.Warmstarter
)
