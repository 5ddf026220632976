package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/cost"
	"repro/internal/eg/egtest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// computeObs sums a report's compute families: their observation count and
// the observation-weighted mean relative error.
func computeObs(r *calib.Report) (n int64, meanRelErr float64) {
	var sum float64
	for _, f := range r.Families {
		if strings.HasPrefix(f.Name, "compute:") {
			n += f.Count
			sum += f.MeanAbsRelErr * float64(f.Count)
		}
	}
	if n > 0 {
		meanRelErr = sum / float64(n)
	}
	return n, meanRelErr
}

// TestCalibrationEndToEnd runs the same workload repeatedly against a
// deliberately mis-scaled cost.Profile — 2ms latency for in-memory
// fetches that really take microseconds — and asserts the calibration
// report flags the drift and FitProfile recovers a profile within 20% of
// the measured truth.
func TestCalibrationEndToEnd(t *testing.T) {
	skewed := cost.Profile{Name: "memory", Latency: 2 * time.Millisecond, BytesPerSecond: 8 << 30}
	srv := NewServer(store.New(skewed))
	client := NewClient(srv, WithParallelism(1))
	// Cl(terminal) = ~2ms must undercut recomputing the 4ms-per-op chain
	// so later runs reuse from EG.
	wp := synth.WideProfile{Branches: 4, Depth: 2, Sleep: 4 * time.Millisecond}

	const runs = 11
	var lastReused int
	for i := 0; i < runs; i++ {
		res, err := client.Run(synth.Wide(wp, 1))
		if err != nil {
			t.Fatal(err)
		}
		lastReused = res.Reused
		if i > 0 && res.Reused == 0 {
			t.Fatalf("run %d: expected reuse from EG, got none", i)
		}
		if i > 0 && res.FetchTime <= 0 {
			t.Fatalf("run %d: reused %d vertices but measured no fetch time", i, res.Reused)
		}
	}
	if lastReused == 0 {
		t.Fatal("no reuse in final run")
	}

	report := srv.Calibration().Snapshot()
	if report.Runs < runs-1 {
		t.Errorf("scorecard runs = %d, want >= %d", report.Runs, runs-1)
	}
	// The 2ms-latency profile overpredicts microsecond in-memory fetches
	// by orders of magnitude: drift must be flagged.
	flagged := false
	for _, name := range report.DriftFlagged {
		if name == "load:memory" {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("drift not flagged for load:memory; report drift families = %v", report.DriftFlagged)
	}
	var fam *calib.FamilyReport
	for i := range report.Families {
		if report.Families[i].Name == "load:memory" {
			fam = &report.Families[i]
		}
	}
	if fam == nil {
		t.Fatal("no load:memory family in report")
	}
	if fam.Count < calib.MinFitSamples {
		t.Fatalf("load observations = %d, want >= %d", fam.Count, calib.MinFitSamples)
	}
	if fam.Drift <= calib.DriftThreshold {
		t.Errorf("drift = %v, want > %v", fam.Drift, calib.DriftThreshold)
	}
	if fam.PredictedMeanSec < 50*fam.ActualMeanSec {
		t.Errorf("mis-scaled profile should overpredict heavily: predicted %v vs actual %v",
			fam.PredictedMeanSec, fam.ActualMeanSec)
	}

	// The refitted profile must recover the measured truth within 20%:
	// predicting the mean observed artifact size must land within 20% of
	// the mean measured fetch duration. It is read the way `collab
	// calibration -fit` reads it, off the report.
	var fit *cost.Profile
	for _, f := range report.Fits {
		if f.Tier == "memory" {
			latency, err := time.ParseDuration(f.Latency)
			if err != nil {
				t.Fatal(err)
			}
			fit = &cost.Profile{Latency: latency, BytesPerSecond: f.BytesPerSecond}
		}
	}
	if fit == nil {
		t.Fatalf("no memory fit despite enough samples: %+v", report.Fits)
	}
	got := fit.LoadCost(int64(fam.BytesMean)).Seconds()
	if rel := math.Abs(got-fam.ActualMeanSec) / fam.ActualMeanSec; rel > 0.20 {
		t.Fatalf("fitted profile predicts %.9fs at mean size, measured mean %.9fs (rel err %.3f)",
			got, fam.ActualMeanSec, rel)
	}

	// The realized speedup of reuse runs must be positive — fetching at
	// microseconds beats recomputing a ~36ms chain.
	if report.LastSpeedup <= 1 {
		t.Errorf("LastSpeedup = %v, want > 1", report.LastSpeedup)
	}
	if report.WallSecTotal <= 0 || report.LastRun == nil || report.LastRun.WallSec <= 0 {
		t.Errorf("wall total %v, last run %+v: want both wall times > 0", report.WallSecTotal, report.LastRun)
	}

	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "# TYPE go_") {
		t.Error("/metrics carries go_* runtime families; -pprof and /proc give those")
	}
}

// TestCalibrationObservesCompute re-executes a workload the EG already
// knows (ALL_C planner forces recompute) and checks compute predictions
// are compared against fresh measurements.
func TestCalibrationObservesCompute(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()), WithPlanner(reuse.AllCompute{}))
	client := NewClient(srv, WithParallelism(1))
	wp := synth.WideProfile{Branches: 2, Depth: 2, Sleep: time.Millisecond}
	for i := 0; i < 2; i++ {
		if _, err := client.Run(synth.Wide(wp, 1)); err != nil {
			t.Fatal(err)
		}
	}
	n, relErr := computeObs(srv.Calibration().Snapshot())
	if n == 0 {
		t.Fatal("second run should compare compute times against EG predictions")
	}
	// Sleep-dominated ops are stable across runs: predictions should be
	// reasonably calibrated, certainly not orders of magnitude off.
	if relErr > 5 {
		t.Errorf("compute mean relative error = %v, implausibly large for identical reruns", relErr)
	}
}

// TestObserveExecutionPreMergePredictions pins the ordering contract: the
// compute prediction compared must be the EG's value from BEFORE the
// merge, not the fresh measurement (which would always match itself).
func TestObserveExecutionPreMergePredictions(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))

	run1 := synth.Wide(synth.WideProfile{Branches: 1, Depth: 1}, 7)
	run1.MarkComputed()
	opt := srv.Optimize(run1, nil)
	if _, err := Execute(run1, opt.Plan, srv); err != nil {
		t.Fatal(err)
	}
	// Inflate one executed vertex's compute time the way a client would
	// report it, so the EG's prediction for run 2 is visibly stale.
	var target *graph.Node
	for _, n := range run1.Nodes() {
		if !n.IsSource() && n.ComputeTime > 0 {
			target = n
			break
		}
	}
	if target == nil {
		t.Fatal("no executed vertex in run 1")
	}
	target.ComputeTime = time.Minute
	srv.Update(run1, &obs.Request{RequestID: "run-1"}, 0)

	run2 := synth.Wide(synth.WideProfile{Branches: 1, Depth: 1}, 7)
	run2.MarkComputed()
	req2 := &obs.Request{RequestID: "run-2"}
	opt2 := srv.Optimize(run2, req2)
	// Force recompute so the compute path is observed.
	opt2.Plan = &reuse.Plan{Reuse: map[string]bool{}}
	if _, err := Execute(run2, opt2.Plan, srv); err != nil {
		t.Fatal(err)
	}
	srv.Update(run2, req2, 0)

	n, relErr := computeObs(srv.Calibration().Snapshot())
	if n == 0 {
		t.Fatal("no compute observations")
	}
	// Prediction (1 minute) vs measured (~µs): relative error must be
	// enormous, proving the pre-merge value was used.
	if relErr < 100 {
		t.Errorf("compute mean relative error = %v; inflated pre-merge prediction not used", relErr)
	}
	if err := egtest.Check(srv.EG); err != nil {
		t.Fatal(err)
	}
}
