package calib

import "time"

// Scorecard grades one optimized request after execution: did reuse pay
// off, and by how much?
//
// The naive baseline prices the same workload with zero reuse — every
// reused vertex charged at its EG recreation cost Cr(v) (the paper's
// "execute the whole workload from scratch"). Regret-style accounting
// falls out of the difference between estimated and realized savings.
type Scorecard struct {
	RequestID string `json:"request_id,omitempty"`
	// Reused / Executed count vertices by outcome in this request.
	Reused   int `json:"reused"`
	Executed int `json:"executed"`
	// EstimatedSavedSec is Σ Cr(v) over reused vertices minus the measured
	// fetch time: the optimizer's claimed benefit, net of what the fetches
	// actually cost.
	EstimatedSavedSec float64 `json:"estimated_saved_sec"`
	// RecreationSec is Σ Cr(v) over reused vertices (what recomputing the
	// reused set would have cost per the EG).
	RecreationSec float64 `json:"recreation_sec"`
	// FetchActualSec / ComputeActualSec are measured durations.
	FetchActualSec   float64 `json:"fetch_actual_sec"`
	ComputeActualSec float64 `json:"compute_actual_sec"`
	// NaiveSec estimates the all-compute plan: measured compute plus the
	// recreation cost of everything reused.
	NaiveSec float64 `json:"naive_sec"`
	// ActualSec is the realized plan cost: measured compute plus measured
	// fetches.
	ActualSec float64 `json:"actual_sec"`
	// Speedup is NaiveSec / ActualSec (1 when nothing was reused; 0 when
	// ActualSec is unmeasurably small).
	Speedup float64 `json:"speedup"`
	// WallSec is the client-reported wall-clock time for the run, when the
	// client reported one (0 otherwise).
	WallSec float64 `json:"wall_sec,omitempty"`
}

// NewScorecard derives the scorecard's aggregate fields from its raw
// measurements. recreation is Σ Cr over reused vertices; fetch and
// compute are measured totals.
func NewScorecard(requestID string, reused, executed int, recreation, fetch, compute time.Duration) Scorecard {
	sc := Scorecard{
		RequestID:        requestID,
		Reused:           reused,
		Executed:         executed,
		RecreationSec:    recreation.Seconds(),
		FetchActualSec:   fetch.Seconds(),
		ComputeActualSec: compute.Seconds(),
	}
	sc.EstimatedSavedSec = sc.RecreationSec - sc.FetchActualSec
	sc.NaiveSec = sc.ComputeActualSec + sc.RecreationSec
	sc.ActualSec = sc.ComputeActualSec + sc.FetchActualSec
	if sc.ActualSec > minFloor {
		sc.Speedup = sc.NaiveSec / sc.ActualSec
	} else if reused == 0 {
		sc.Speedup = 1
	}
	return sc
}
