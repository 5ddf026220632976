package core

import (
	"time"

	"repro/internal/calib"
	"repro/internal/graph"
	"repro/internal/obs"
)

// ArtifactSource hands the executor artifact content by vertex ID together
// with the modeled retrieval cost. A local store and a remote HTTP client
// both implement it.
type ArtifactSource interface {
	// Fetch returns the artifact content, or nil when unavailable.
	Fetch(id string) graph.Artifact
	// LoadCostOf models the retrieval cost Cl for the given size.
	LoadCostOf(sizeBytes int64) time.Duration
}

// TieredFetcher is implemented by artifact sources that know which storage
// tier serves each artifact. FetchTiered returns the content (nil when
// unavailable), the label of the serving tier ("memory", "disk", "remote"),
// and the modeled retrieval cost priced for that tier. The executor prefers
// it over Fetch/LoadCostOf so fetch spans and load costs reflect the
// artifact's actual location.
type TieredFetcher interface {
	FetchTiered(id string) (graph.Artifact, string, time.Duration)
}

// SessionTier labels content that came from the client's own memory of
// earlier runs (the remote client's session store) instead of a fetch. A
// vertex carrying it was obtained without being computed, so it counts as
// reuse, but nothing was transferred: there is no load to calibrate.
const SessionTier = "session"

// RequestTieredFetcher is implemented by tiered sources that can attribute
// a fetch to the request whose plan triggered it: a disk hit promotes the
// artifact into memory, and the artifact ledger's promote event then names
// the run that pulled it up. The executor prefers it over FetchTiered when
// the execution carries a request ID.
type RequestTieredFetcher interface {
	FetchTieredReq(id, requestID string) (graph.Artifact, string, time.Duration)
}

// Optimizer is the server interface the client speaks: in-process (*Server)
// or over HTTP (*RemoteClient). Both implement the optimize/update
// round-trip of Figure 2 plus artifact retrieval.
type Optimizer interface {
	ArtifactSource
	Optimize(w *graph.DAG) *Optimization
	Update(executed *graph.DAG)
}

// RequestOptimizer is implemented by optimizers that accept a
// client-generated request ID for end-to-end correlation: the in-process
// *Server tags its logs, spans, and explain records with it; the remote
// client propagates it over the wire as the X-Collab-Request header.
// Client.Run generates one ID per workload run and uses these variants
// when available.
type RequestOptimizer interface {
	OptimizeReq(w *graph.DAG, requestID string) *Optimization
	UpdateReq(executed *graph.DAG, requestID string)
}

// RunReporter is implemented by optimizers that accept the client's
// post-execution run summary (wall-clock time, measured fetch totals) for
// the calibration scorecard. The in-process *Server records it directly;
// the remote client piggybacks it on the update request.
type RunReporter interface {
	ReportRun(run calib.ClientRun, requestID string)
}

// Client drives one workload through the full pipeline: local pruning,
// server-side optimization, execution, and the EG update.
type Client struct {
	srv      Optimizer
	execOpts []ExecOption
}

// NewClient returns a client bound to a server (local or remote). Optional
// ExecOptions (e.g. WithParallelism) are applied to every Run.
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
// the metrics. The DAG's source vertices must carry content.
//
// Every run generates a request ID, propagated to the server (in-process
// or via the X-Collab-Request header) and attached to trace spans, server
// log lines, and explain records, so one grep correlates the run
// end-to-end.
func (c *Client) Run(w *graph.DAG) (*RunResult, error) {
	rid := obs.NewRequestID()

	// Step 2: local pruning — mark vertices whose content is already on
	// the client so the optimizer treats them as free.
	w.MarkComputed()

	// Step 3: server-side optimization.
	var opt *Optimization
	ro, reqScoped := c.srv.(RequestOptimizer)
	if reqScoped {
		opt = ro.OptimizeReq(w, rid)
	} else {
		opt = c.srv.Optimize(w)
	}

	// Install warmstart donors on the client, which owns the operations.
	tr := traceOf(c.execOpts)
	for _, cand := range opt.Warmstarts {
		n := w.Node(cand.VertexID)
		if n == nil || n.Op == nil {
			continue
		}
		wop, ok := n.Op.(graph.WarmstartableOp)
		if !ok {
			continue
		}
		if ma, ok := c.srv.Fetch(cand.DonorID).(*graph.ModelArtifact); ok && ma.Model != nil {
			wop.SetDonor(ma.Model)
			if tr != nil {
				tr.Instant(n.Name, "warmstart", 0, map[string]any{
					"vertex": cand.VertexID, "donor": cand.DonorID, "quality": cand.Quality,
				})
			}
		}
	}

	// Step 4: execution, tagged with the run's request ID. Calibration
	// measurement defaults on for client-driven runs — the caller's own
	// options come later, so an explicit WithCalibration(false) wins.
	execOpts := append([]ExecOption{WithCalibration(true)}, c.execOpts...)
	if tr != nil {
		execOpts = append(execOpts, WithRequestID(rid))
	}
	res, err := Execute(w, opt.Plan, c.srv, execOpts...)
	if err != nil {
		return nil, err
	}

	// Report the run summary ahead of the update so the server can fold
	// wall-clock time into the request's scorecard. Skipped when the
	// caller opted out of calibration measurement.
	if rr, ok := c.srv.(RunReporter); ok && measureOf(execOpts) {
		rr.ReportRun(calib.ClientRun{
			WallTime:    res.WallTime,
			RunTime:     res.RunTime,
			ComputeTime: res.ComputeTime,
			LoadTime:    res.LoadTime,
			FetchTime:   res.FetchTime,
			Executed:    res.Executed,
			Reused:      res.Reused,
			Warmstarted: res.Warmstarted,
		}, rid)
	}

	// Step 5: updater.
	if reqScoped {
		ro.UpdateReq(w, rid)
	} else {
		c.srv.Update(w)
	}

	return &RunResult{
		ExecResult:          *res,
		OptimizeOverhead:    opt.Overhead,
		WarmstartCandidates: len(opt.Warmstarts),
		RequestID:           rid,
	}, nil
}
