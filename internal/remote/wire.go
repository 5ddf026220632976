// Package remote implements the HTTP transport between clients and the
// collaborative-optimizer server (Figure 2 split across machines). The
// workload DAG travels as meta-data: the codec writes a client's graph.DAG
// and reads a body straight into the graph.DAG the server plans on and
// merges, and its decoder is the one place a node list that is not a DAG in
// topological order is refused. What travels of a DAG is what the run
// needs, its frontier form: the live vertices — the ones the walk up from
// the terminals reaches before it meets a Computed one — with their
// parents, and the Computed vertices it stops at, the frontier, without
// theirs; nothing above the frontier leaves the client. The server holds
// the rest under the frontier's IDs: the optimize answer names the
// frontier vertices it does not hold, and the update sends those with their
// whole ancestry. Artifact content moves lazily —
// downloaded when a plan reuses it; the models and aggregates a run
// produced ride along with its update, and datasets are uploaded, in one
// body per update, when the server's materializer selects them.
//
// Wire format: every body is a message of the hand-written binary codec of
// codec.go. A dataset travels as its manifest and its columns in the tier's
// column record, which the server validates, keeps and sends back as it
// arrived; models and aggregates travel in the tier's blob record, in the
// update's inline section, an upload item or a download. Nothing on the
// wire is gob.
package remote

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/tier"
)

// OptimizeRequest is the body of POST /v1/optimize: the locally pruned
// workload DAG in its frontier form (the live vertices and the frontier, see
// listOf), its vertices' meta-data without their column lineage. The
// planner prices a frontier vertex at 0, as any Computed vertex, so the plan
// of the live vertices is the plan of the whole DAG.
type OptimizeRequest struct {
	DAG *graph.DAG
}

// optimizeResponse is the answer to POST /v1/optimize: the reuse plan, as
// its reuse IDs sorted and each one's predicted load, the warmstart
// proposals and the planner's overhead; and the frontier vertices of the
// request the Experiment Graph does not hold, in request order — none in
// steady state, the sources on a fresh server — which the update then sends
// with their ancestry.
type optimizeResponse struct {
	core.Optimization
	Unknown []string
}

// UpdateRequest carries an executed DAG's meta-data and the content of what
// the run produced that is not a dataset. The DAG travels in its frontier
// form, as on optimize, with column lineage; the frontier vertices of
// Unknown travel in full instead, each with its whole ancestry, which is
// what the server needs to insert vertices it does not hold.
type UpdateRequest struct {
	DAG *graph.DAG
	// Unknown lists the frontier vertices the server said it does not hold
	// (the optimize answer's, or a 409's). Only the encoder reads it: a
	// decoded request carries the form in its nodes (graph.Node.Frontier).
	Unknown []string
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
	// indices into vertex WantContent[i]'s column lineage (as sent on this
	// update) of the columns the server's store already holds, which the
	// client leaves out of the upload. Indices, not lineage IDs, so the
	// response grows by a byte per held column. A missing or empty entry
	// means "holds none" — the codec carries an empty list as nothing, so the
	// list names what is held, not what is needed: the safe reading of
	// silence is a full upload.
	Have [][]int
}

// frontierConflict is the 409 answer to an update whose frontier names
// vertices the Experiment Graph does not hold (pruned, or lost to a
// restart, since the optimize): the update changed nothing, and the client
// sends it once more with those vertices' ancestry.
type frontierConflict struct {
	Unknown []string
}

func (c *frontierConflict) Error() string {
	return fmt.Sprintf("remote: update: the server does not hold frontier vertices %v", c.Unknown)
}

// uploadRequest is the body of POST /v1/artifact: one item per vertex an
// update wanted. buf, when set, is the buffer the encoder writes the body
// into when it is large enough: a client reuses one for its uploads, the
// largest bodies it sends.
type uploadRequest struct {
	Items []artifactUpload
	buf   *[]byte
}

// artifactUpload is one item of an upload body, the content of vertex ID.
// Exactly one half is set. Models and aggregates travel whole in Blob. A
// dataset travels as its manifest (ordered column lineage IDs and names)
// plus the columns the server does not hold yet; the server assembles the
// frame from those and the columns its store has under the same IDs. A full
// upload is the case where every manifest column travels. The client's
// columns are Columns, encoded when the body is written; the server reads
// them as Records, validated and never decoded, and keeps those.
type artifactUpload struct {
	ID      string
	Blob    graph.Artifact
	ColIDs  []string
	Names   []string
	Columns []*data.Column
	Records []tier.Record
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

// wireOp is the server-side stand-in for a client operation: it carries
// the hash and flags but cannot run. It is warmstartable when the client's
// operation was, so donor search works server-side.
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
func (o wireOp) CanWarmstart() bool { return o.warmstartKind != "" }
func (o wireOp) ModelKind() string  { return o.warmstartKind }
func (o wireOp) SetDonor(ml.Model)  {}
