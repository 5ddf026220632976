package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"repro/internal/ml"
)

// Operation is an edge of the workload DAG: a deterministic transformation
// from the contents of the parent vertices to the content of the child
// vertex. Operations are identified by a hash of their name and parameters
// (§4.1, "DAG Construction"), which is what makes artifact identity
// detectable across workloads.
type Operation interface {
	// Name is a short operation label ("join", "onehot", "train:gbt").
	Name() string
	// Hash identifies the operation including all its parameters.
	Hash() string
	// OutKind is the vertex kind the operation produces.
	OutKind() Kind
	// Run executes the operation on the parent artifacts, in parent
	// order.
	Run(inputs []Artifact) (Artifact, error)
}

// WarmstartableOp is implemented by model-training operations that can be
// initialized from a previously trained model (§6.2). The optimizer calls
// SetDonor before execution when it found a candidate in EG and the user
// allowed warmstarting.
type WarmstartableOp interface {
	Operation
	// CanWarmstart reports whether the user allowed warmstarting this
	// training operation.
	CanWarmstart() bool
	// ModelKind returns the learner kind ("logreg", "gbt", ...) used to
	// match donors.
	ModelKind() string
	// SetDonor hands the operation the donor model to initialize from.
	SetDonor(m ml.Model)
}

// OpHash hashes an operation name and its parameter rendering into the
// canonical 32-hex-digit edge hash.
func OpHash(name, params string) string {
	h := sha256.Sum256([]byte(name + "\x00" + params))
	return hex.EncodeToString(h[:16])
}

// Node is a vertex of a workload DAG. Identity (ID) is structural:
// H(opHash ‖ parent IDs) for derived nodes, H("source" ‖ name) for sources,
// so equal IDs across workloads mean "same artifact".
type Node struct {
	ID   string
	Kind Kind
	// Name is a human label for debugging and experiment output.
	Name string
	// Op produced this node from Parents; nil for source vertices and
	// supernodes.
	Op      Operation
	Parents []*Node

	// Computed marks vertices whose Content is already present on the
	// client (sources, or cells previously run in a notebook session).
	// The local pruner sets Ci(v)=0 for them (§3.1, §6.1).
	Computed bool
	// Content is the artifact once computed or loaded.
	Content Artifact
	// ComputeTime is the measured execution time of Op for this vertex.
	ComputeTime time.Duration
	// SizeBytes is the measured content size.
	SizeBytes int64
	// Quality mirrors Content's model quality for model vertices.
	Quality float64
	// LoadedFromEG marks vertices whose content was retrieved from the
	// Experiment Graph rather than computed (set by the executor).
	LoadedFromEG bool
	// Warmstarted marks model vertices whose training was warmstarted.
	Warmstarted bool

	// FetchTime is the measured wall-clock duration of the EG fetch for
	// LoadedFromEG vertices; FetchTier labels where the bytes came from
	// ("memory", "disk", "remote:disk", ...). PredictedLoad is the Cl(v)
	// the reuse planner priced the fetch at. All three are set only when
	// the executor runs with calibration measurement enabled; the
	// calibration layer compares them server-side.
	FetchTime     time.Duration
	FetchTier     string
	PredictedLoad time.Duration

	// Columns, ColSizes and ModelKind describe the content of a node that
	// travels without it (a DAG rebuilt from wire meta-data): the lineage IDs
	// and byte sizes of a dataset's columns, index for index, and the learner
	// kind of a trained model. The updater reads them where Content is nil.
	Columns   []string
	ColSizes  []int64
	ModelKind string

	// Frontier marks a Computed node that travelled without its parents (the
	// remote protocol's frontier form): it stands for itself and every
	// ancestor the Experiment Graph holds for its ID, which names them all,
	// since an ID is derived from the parents' IDs. Only the wire decoder
	// sets it.
	Frontier bool
}

// SourceID returns the vertex ID of a raw source dataset by name.
func SourceID(name string) string {
	h := sha256.Sum256([]byte("source\x00" + name))
	return hex.EncodeToString(h[:16])
}

// DeriveNodeID computes a child vertex ID from its operation hash and
// ordered parent IDs.
func DeriveNodeID(opHash string, parents []*Node) string {
	h := sha256.New()
	h.Write([]byte(opHash))
	for _, p := range parents {
		h.Write([]byte{0})
		h.Write([]byte(p.ID))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// IsSource reports whether the node is a raw-data source vertex: it has no
// parents, and not because it travelled without them (Frontier).
func (n *Node) IsSource() bool { return len(n.Parents) == 0 && !n.Frontier }
