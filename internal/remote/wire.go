// Package remote implements the HTTP transport between clients and the
// collaborative-optimizer server (Figure 2 split across machines). The
// workload DAG travels as meta-data; artifact content moves lazily —
// downloaded when a plan reuses it; the models and aggregates a run
// produced ride along with its update, and datasets are uploaded, in one
// body per update, when the server's materializer selects them.
//
// Wire format: every body is a message of the hand-written binary codec of
// codec.go. A dataset travels as its manifest and its columns in the tier's
// column record; models and aggregates travel in the tier's blob record, in
// the update's inline section, an upload item or a download. Nothing on the
// wire is gob.
package remote

import (
	"fmt"
	"time"

	"repro/internal/calib"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/reuse"
)

// WireNode is one workload vertex as shipped to the server: identity,
// structure, and measurements — never content.
type WireNode struct {
	ID       string
	Kind     graph.Kind
	Name     string
	OpHash   string
	External bool
	// Warmstartable training operations advertise their learner kind so
	// the server can search donors.
	WarmstartKind string
	Parents       []string
	Computed      bool
	ComputeTime   time.Duration
	SizeBytes     int64
	Quality       float64
	// Columns and ColSizes carry dataset lineage for dedup accounting and
	// the update's Have answer; an optimize request leaves them behind.
	Columns  []string
	ColSizes []int64
	// TrainedKind is the learner kind of an executed model vertex
	// ("logreg", "gbt", ...), needed server-side for donor matching.
	TrainedKind string
	// LoadedFromEG through PredictedLoad carry the client's calibration
	// measurements back on update: whether the vertex was fetched instead
	// of computed, how long the fetch took, which tier served it, and the
	// Cl(v) the plan predicted.
	LoadedFromEG  bool
	FetchTime     time.Duration
	FetchTier     string
	PredictedLoad time.Duration
}

// OptimizeRequest carries a pruned workload DAG in topological order.
type OptimizeRequest struct {
	Nodes []WireNode
}

// OptimizeResponse returns the reuse plan and warmstart proposals.
type OptimizeResponse struct {
	ReuseIDs   []string
	Warmstarts []reuse.WarmstartCandidate
	Overhead   time.Duration
	// PredictedLoadSec is aligned index-for-index with ReuseIDs: the
	// planner's Cl(v) prediction in seconds for each reused vertex, so the
	// client's executor can annotate fetches for calibration.
	PredictedLoadSec []float64
}

// UpdateRequest carries an executed DAG's meta-data and the content of what
// the run produced that is not a dataset.
type UpdateRequest struct {
	Nodes []WireNode
	// WallTime is the client's measured Execute wall-clock time, for the
	// calibration scorecard.
	WallTime time.Duration
	// Inline holds the models and aggregates the run computed (not
	// Computed, not LoadedFromEG): small next to the frames, and mostly what
	// the materializer selects. The server stores what it selects of
	// them during the update and asks for none of them. Datasets never ride
	// here — they are uploaded by manifest, so the columns the server holds
	// stay behind — and a dataset sent inline is refused.
	Inline []InlineArtifact
}

// InlineArtifact is the content of one vertex of an update's DAG.
type InlineArtifact struct {
	ID      string
	Content graph.Artifact
}

// UpdateResponse lists the vertex IDs whose content the server asks the
// client to upload, and what the server already holds of each.
type UpdateResponse struct {
	WantContent []string
	// Have is aligned index-for-index with WantContent: Have[i] lists the
	// indices into vertex WantContent[i]'s WireNode.Columns (as sent on this
	// update) of the columns the server's store already holds, which the
	// client leaves out of the upload. Indices, not lineage IDs, so the
	// response grows by a byte per held column. A missing or empty entry
	// means "holds none" — the codec carries an empty list as nothing, so the
	// list names what is held, not what is needed: the safe reading of
	// silence is a full upload.
	Have [][]int
}

// uploadRequest is the body of POST /v1/artifact: one item per vertex an
// update wanted.
type uploadRequest struct {
	Items []artifactUpload
}

// artifactUpload is one item of an upload body, the content of vertex ID.
// Exactly one half is set. Models and aggregates travel whole in Blob. A
// dataset travels as its manifest (ordered column lineage IDs and names)
// plus the columns the server does not hold yet; the server assembles the
// frame from those and the columns its store has under the same IDs. A full
// upload is the case where Columns carries every manifest column.
type artifactUpload struct {
	ID      string
	Blob    graph.Artifact
	ColIDs  []string
	Names   []string
	Columns []*data.Column
}

// uploadResponse is the 200 answer to an upload: the items, in body order,
// refused because a manifest column is neither in the body nor held any
// more. Everything else in the body was admitted. An upload with nothing
// refused is answered 204.
type uploadResponse struct {
	Absent []string
}

// downloadResponse is the 200 answer to GET /v1/artifact: the content of
// the vertex asked for.
type downloadResponse struct {
	Content graph.Artifact
}

// Request bodies are bounded: a meta-data request (optimize) carries about
// fifty bytes per workload vertex; an update adds the run's inline
// artifacts and an upload carries the content an update wants, both capped
// in practice by the default materialization budget (1 GiB). Larger bodies
// are answered 413. A body of known length up to maxMetaBody is read into a
// buffer of that length (readBody).
const (
	maxMetaBody     = 64 << 20
	maxArtifactBody = 1 << 30
)

// TierHeader is the response header on artifact downloads naming the
// storage tier that served the content ("memory", "disk").
const TierHeader = "X-Collab-Tier"

// Stats summarizes server state for CLI inspection: EG/store sizes plus
// the cumulative optimizer and updater telemetry tracked by internal/obs.
type Stats struct {
	Vertices      int
	Materialized  int
	PhysicalBytes int64
	LogicalBytes  int64
	// MemoryBytes and DiskBytes split PhysicalBytes by storage tier
	// (inclusive tiers: an artifact resident in both counts in both).
	MemoryBytes int64
	DiskBytes   int64
	// MemoryArtifacts and DiskArtifacts are the per-tier artifact counts
	// (inclusive tiers: memory+disk can exceed the store total).
	MemoryArtifacts int
	DiskArtifacts   int
	// PlanTime and MatTime are the accumulated reuse-planning and
	// materialization-algorithm overheads.
	PlanTime time.Duration
	MatTime  time.Duration
	// OptimizeCount and UpdateCount count served round-trips.
	OptimizeCount int64
	UpdateCount   int64
	// ReusePlanned is the cumulative number of vertices reuse plans chose
	// to load; WarmstartsProposed counts donors proposed to clients.
	ReusePlanned       int64
	WarmstartsProposed int64
	// Reason-coded split of vertices reuse plans did not load: dropped by
	// the backward pass (off the execution path), rejected because loading
	// was no cheaper than recomputing, or unloadable because EG never
	// materialized them.
	PlanPrunedOffPath         int64
	PlanPrunedByCost          int64
	PlanPrunedNotMaterialized int64
	// Runs onward summarize the calibration scorecard: measured client
	// runs, their wall-clock totals, observation counts, estimated time
	// saved by reuse, the most recent realized speedup, and the worst
	// cost-family drift.
	Runs              int64
	RunWallTime       time.Duration
	LastRunWallTime   time.Duration
	CalibLoadObs      int64
	CalibComputeObs   int64
	EstimatedSavedSec float64
	LastSpeedup       float64
	MaxDrift          float64
	MaxDriftFamily    string
	LastRun           *calib.Scorecard
	// Version, GoVersion, and UptimeSeconds identify the serving process:
	// build identity (mirroring the collab_build_info metric) and how long
	// it has been up.
	Version       string
	GoVersion     string
	UptimeSeconds float64
	// Saturation telemetry: cumulative server-mutex queue and hold times
	// across sections and the store write-lock analogue.
	LockWaitSec      float64
	LockHoldSec      float64
	StoreLockWaitSec float64
	// Artifact-ledger economics: distinct artifacts tracked, cumulative
	// realized reuse savings, storage rent, and their difference (see
	// /v1/artifacts for the per-artifact breakdown). All zero when the
	// ledger is disabled.
	ArtifactsTracked int
	ArtifactSavedSec float64
	ArtifactRentSec  float64
	ArtifactNetSec   float64
}

// ToWire flattens a workload DAG into wire nodes in topological order.
func ToWire(w *graph.DAG) []WireNode {
	order := w.TopoOrder()
	out := make([]WireNode, 0, len(order))
	for _, n := range order {
		wn := WireNode{
			ID:            n.ID,
			Kind:          n.Kind,
			Name:          n.Name,
			Computed:      n.Computed,
			ComputeTime:   n.ComputeTime,
			SizeBytes:     n.SizeBytes,
			Quality:       n.Quality,
			LoadedFromEG:  n.LoadedFromEG,
			FetchTime:     n.FetchTime,
			FetchTier:     n.FetchTier,
			PredictedLoad: n.PredictedLoad,
		}
		for _, p := range n.Parents {
			wn.Parents = append(wn.Parents, p.ID)
		}
		if n.Op != nil {
			wn.OpHash = n.Op.Hash()
			if ext, ok := n.Op.(interface{ External() bool }); ok && ext.External() {
				wn.External = true
			}
			if wop, ok := n.Op.(graph.WarmstartableOp); ok && wop.CanWarmstart() {
				wn.WarmstartKind = wop.ModelKind()
			}
		}
		switch content := n.Content.(type) {
		case *graph.DatasetArtifact:
			if content.Frame != nil {
				for _, c := range content.Frame.Columns() {
					wn.Columns = append(wn.Columns, c.ID)
					wn.ColSizes = append(wn.ColSizes, c.SizeBytes())
				}
			}
		case *graph.ModelArtifact:
			if content.Model != nil {
				wn.TrainedKind = content.Model.Kind()
			}
		}
		out = append(out, wn)
	}
	return out
}

// wireOp is the server-side stand-in for a client operation: it carries
// the hash and flags but cannot run.
type wireOp struct {
	name          string
	hash          string
	kind          graph.Kind
	external      bool
	warmstartKind string
}

func (o wireOp) Name() string        { return o.name }
func (o wireOp) Hash() string        { return o.hash }
func (o wireOp) OutKind() graph.Kind { return o.kind }
func (o wireOp) External() bool      { return o.external }
func (o wireOp) Run([]graph.Artifact) (graph.Artifact, error) {
	panic("remote: wire operations are not executable on the server")
}

// wireWarmstartOp additionally satisfies graph.WarmstartableOp so donor
// search works server-side.
type wireWarmstartOp struct{ wireOp }

func (o wireWarmstartOp) CanWarmstart() bool { return true }
func (o wireWarmstartOp) ModelKind() string  { return o.warmstartKind }
func (o wireWarmstartOp) SetDonor(ml.Model)  {}

// FromWire reconstructs a meta-only workload DAG on the server. Node
// identity is preserved verbatim (the server trusts client-computed IDs,
// as both sides share the hashing scheme), structure is not: the list must
// be a DAG in topological order, as ToWire produces it. A node that repeats
// an ID, or names a parent that does not precede it, is an error — dropping
// the edge instead would turn an operation's output into a "source", which
// the updater stores outside the budget. (A list decoded off the wire has
// its parents as indices of earlier nodes already; the rule stands for
// in-process callers.)
func FromWire(nodes []WireNode) (*graph.DAG, error) {
	w := graph.NewDAG()
	byID := make(map[string]*graph.Node, len(nodes))
	for i, wn := range nodes {
		if byID[wn.ID] != nil {
			return nil, fmt.Errorf("wire node %d repeats ID %q", i, wn.ID)
		}
		n := &graph.Node{
			ID:            wn.ID,
			Kind:          wn.Kind,
			Name:          wn.Name,
			Computed:      wn.Computed,
			ComputeTime:   wn.ComputeTime,
			SizeBytes:     wn.SizeBytes,
			Quality:       wn.Quality,
			LoadedFromEG:  wn.LoadedFromEG,
			FetchTime:     wn.FetchTime,
			FetchTier:     wn.FetchTier,
			PredictedLoad: wn.PredictedLoad,
			Columns:       wn.Columns,
			ColSizes:      wn.ColSizes,
			ModelKind:     wn.TrainedKind,
		}
		for _, pid := range wn.Parents {
			p := byID[pid]
			if p == nil {
				return nil, fmt.Errorf("wire node %d (%q): parent %q does not precede it", i, wn.ID, pid)
			}
			n.Parents = append(n.Parents, p)
		}
		if wn.OpHash != "" {
			op := wireOp{
				name:          wn.Name,
				hash:          wn.OpHash,
				kind:          wn.Kind,
				external:      wn.External,
				warmstartKind: wn.WarmstartKind,
			}
			if wn.WarmstartKind != "" {
				n.Op = wireWarmstartOp{op}
			} else {
				n.Op = op
			}
		}
		byID[wn.ID] = n
		w.Adopt(n)
	}
	return w, nil
}
