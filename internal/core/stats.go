package core

import (
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/obs"
)

// Stats summarizes server state for CLI inspection, served as /v1/stats:
// EG/store sizes plus the cumulative optimizer and updater telemetry the
// server's instruments hold. The field names are the JSON keys.
type Stats struct {
	Vertices     int
	Materialized int
	// PhysicalBytes is the memory tier's deduplicated bytes, the paper's
	// single-tier accounting (store.Manager.PhysicalBytes); LogicalBytes
	// counts every stored artifact once, in either tier, before
	// deduplication.
	PhysicalBytes int64
	LogicalBytes  int64
	// MemoryBytes and DiskBytes are each tier's deduplicated bytes
	// (inclusive tiers: an artifact resident in both counts in both).
	MemoryBytes int64
	DiskBytes   int64
	// MemoryArtifacts and DiskArtifacts are the per-tier artifact counts
	// (inclusive tiers: memory+disk can exceed the store total).
	MemoryArtifacts int
	DiskArtifacts   int
	// PlanTime and MatTime are the accumulated reuse-planning (Figure 9d)
	// and materialization-algorithm overheads.
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

// Stats reads one snapshot of the server's state and counters. It takes no
// server lock, so a stats scrape never queues behind the update it is
// measuring.
func (s *Server) Stats() Stats {
	m := s.metrics
	st := Stats{
		Vertices:                  s.EG.Len(),
		Materialized:              s.Materialized(),
		PhysicalBytes:             s.Store.PhysicalBytes(),
		LogicalBytes:              s.Store.LogicalBytes(),
		MemoryBytes:               s.Store.MemoryBytes(),
		DiskBytes:                 s.Store.DiskBytes(),
		PlanTime:                  secondsToDuration(m.optimizeSec.Sum()),
		MatTime:                   secondsToDuration(m.matSec.Sum()),
		OptimizeCount:             m.optimizeTotal.Value(),
		UpdateCount:               m.updateTotal.Value(),
		ReusePlanned:              m.planLoads.Value(),
		WarmstartsProposed:        m.warmstartsFound.Value(),
		PlanPrunedOffPath:         m.planPruned.Value(),
		PlanPrunedByCost:          m.planPrunedCost.Value(),
		PlanPrunedNotMaterialized: m.planPrunedNoMat.Value(),
		Version:                   s.version,
		GoVersion:                 s.goVersion,
		UptimeSeconds:             s.started.Elapsed().Seconds(),
		LockWaitSec:               sum(m.lockWait),
		LockHoldSec:               sum(m.lockHold),
		StoreLockWaitSec:          m.storeLockWait.Sum(),
	}
	st.MemoryArtifacts, st.DiskArtifacts = s.Store.TierCounts()
	if s.ledger != nil {
		st.ArtifactsTracked, st.ArtifactSavedSec, st.ArtifactRentSec, st.ArtifactNetSec = s.ledger.Totals()
	}
	st.calibration(s.calib.Snapshot())
	return st
}

// sum adds up the observations of a section's histograms.
func sum(sections map[string]*obs.Histogram) (total float64) {
	for _, h := range sections {
		total += h.Sum()
	}
	return total
}

// calibration fills the scorecard summary from the calibration report: run
// totals, observation counts summed over each kind of family, and the worst
// drift, ties going to the lexically smaller family (the report's order).
func (st *Stats) calibration(r *calib.Report) {
	st.Runs = r.Runs
	st.RunWallTime = secondsToDuration(r.WallSecTotal)
	st.EstimatedSavedSec = r.EstimatedSavedSecTotal
	st.LastSpeedup = r.LastSpeedup
	st.LastRun = r.LastRun
	if r.LastRun != nil {
		st.LastRunWallTime = secondsToDuration(r.LastRun.WallSec)
	}
	for _, f := range r.Families {
		if strings.HasPrefix(f.Name, "load:") {
			st.CalibLoadObs += f.Count
		} else {
			st.CalibComputeObs += f.Count
		}
		if f.Drift > st.MaxDrift {
			st.MaxDriftFamily, st.MaxDrift = f.Name, f.Drift
		}
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
