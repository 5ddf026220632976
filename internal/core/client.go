package core

import (
	"maps"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reuse"
)

// ArtifactSource hands the executor artifact content by vertex ID.
// FetchTiered returns the content (nil when unavailable), the label of the
// tier that served it ("memory", "disk", "remote:disk", SessionTier), and
// the modeled retrieval cost Cl priced for that tier, so fetch spans and
// load costs reflect the artifact's actual location. req is the record of
// the run whose plan triggered the fetch (nil: none): a remote source sends
// its ID with the transfer.
type ArtifactSource interface {
	FetchTiered(id string, req *obs.Request) (graph.Artifact, string, time.Duration)
}

// SessionTier labels content that came from the client's own memory of
// earlier runs (the remote client's session store) instead of a fetch. A
// vertex carrying it was obtained without being computed, so it counts as
// reuse, but nothing was transferred: there is no load to calibrate.
const SessionTier = "session"

// RemoteTierPrefix heads the label of content fetched over the wire, before
// the server-side tier that served it ("remote:disk"): calibration prices
// the transfer apart from the server's own reads, and the updater credits
// the serving tier in the artifact ledger.
const RemoteTierPrefix = "remote:"

// Optimizer is the server interface the client speaks: in-process (*Server)
// or over HTTP (*remote.Client). Both implement the optimize/update
// round-trip of Figure 2 plus artifact retrieval. Every call of one run
// carries the run's request record: the in-process server fills its facts
// in and tags its logs, spans, and explain records with the ID; the remote
// client propagates the ID over the wire as the X-Collab-Request header.
type Optimizer interface {
	ArtifactSource
	// Optimize plans the run; nil is no answer, and the run computes
	// everything.
	Optimize(w *graph.DAG, req *obs.Request) *Optimization
	// Update merges the executed DAG; wall is the run's measured Execute
	// wall-clock time for the calibration scorecard (0: not measured). The
	// returned IDs are content the server wants and was not given — empty
	// whenever the DAG carried its content or the implementation uploads it
	// itself.
	Update(executed *graph.DAG, req *obs.Request, wall time.Duration) (want []string, err error)
}

// Client drives one workload through the full pipeline: local pruning,
// server-side optimization, execution, and the EG update.
type Client struct {
	srv      Optimizer
	execOpts []ExecOption
}

// NewClient returns a client bound to a server (local or remote). Optional
// ExecOptions (e.g. WithTrace) are applied to every Run.
func NewClient(srv Optimizer, execOpts ...ExecOption) *Client {
	return &Client{srv: srv, execOpts: execOpts}
}

// RunResult combines execution metrics with optimization overhead.
type RunResult struct {
	ExecResult
	// OptimizeOverhead is the server-side reuse-planning time.
	OptimizeOverhead time.Duration
	// WarmstartCandidates is how many donors the server proposed.
	WarmstartCandidates int
	// RequestID is the correlation ID this run carried through the
	// optimizer, the executor trace, and the server's logs and explain
	// records.
	RequestID string
}

// Run executes a workload DAG end to end (Figure 2 steps 2–5) and returns
// the metrics. The DAG's source vertices must carry content. Run is the one
// place that decides how a run goes on without its server: with no optimize
// answer it computes everything, and a failed update leaves the result
// standing (a remote optimizer keeps the error for its Err).
//
// Every run generates a request ID, propagated to the server (in-process
// or via the X-Collab-Request header) and attached to trace spans, server
// log lines, and explain records, so one grep correlates the run
// end-to-end.
func (c *Client) Run(w *graph.DAG) (*RunResult, error) {
	req := &obs.Request{RequestID: obs.NewRequestID()}

	// Step 2: local pruning — mark vertices whose content is already on
	// the client so the optimizer treats them as free.
	w.MarkComputed()

	// Step 3: server-side optimization.
	opt := c.srv.Optimize(w, req)
	if opt == nil {
		opt = &Optimization{}
	}

	cfg := execConfig{req: req}
	for _, o := range c.execOpts {
		o(&cfg)
	}

	// Install warmstart donors on the client, which owns the operations.
	for _, cand := range opt.Warmstarts {
		n := w.Node(cand.VertexID)
		if n == nil || n.Op == nil {
			continue
		}
		wop, ok := n.Op.(graph.WarmstartableOp)
		if !ok {
			continue
		}
		donor, _, _ := c.srv.FetchTiered(cand.DonorID, req)
		if ma, ok := donor.(*graph.ModelArtifact); ok && ma.Model != nil {
			wop.SetDonor(ma.Model)
			if cfg.trace != nil {
				cfg.trace.Instant(n.Name, "warmstart", 0, map[string]any{
					"vertex": cand.VertexID, "donor": cand.DonorID, "quality": cand.Quality,
				})
			}
		}
	}

	// Step 4: execution, tagged with the run's request record. A planned
	// load that misses — the store lost the artifact since the plan was
	// made, or its transfer failed — is computed instead: the run executes
	// again with it dropped from the plan, keeping what it has loaded and
	// computed. Each attempt drops at least one load, so the run ends.
	res := &ExecResult{}
	plan := opt.Plan
	missed, err := execute(w, plan, c.srv, cfg, res)
	for err == nil && len(missed) > 0 {
		plan = &reuse.Plan{Reuse: maps.Clone(plan.Reuse), PredictedLoad: plan.PredictedLoad}
		for _, id := range missed {
			delete(plan.Reuse, id)
		}
		cfg.resume = true
		missed, err = execute(w, plan, c.srv, cfg, res)
	}
	if err != nil {
		return nil, err
	}

	// Step 5: updater. The wall time rides along so the server can fold it
	// into the request's scorecard; a failed update leaves the result
	// standing.
	_, _ = c.srv.Update(w, req, res.WallTime)

	return &RunResult{
		ExecResult:          *res,
		OptimizeOverhead:    opt.Overhead,
		WarmstartCandidates: len(opt.Warmstarts),
		RequestID:           req.RequestID,
	}, nil
}
