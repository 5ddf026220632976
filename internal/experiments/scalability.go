package experiments

import (
	"math"
	"runtime"
	"time"

	"repro/internal/workloads/synth"
)

// ScalabilityResult is one checkpoint of the extension experiment: how the
// server-side per-workload latencies behave as the Experiment Graph grows.
type ScalabilityResult struct {
	// Workloads merged so far.
	Workloads int
	// EGVertices is the Experiment Graph size at the checkpoint.
	EGVertices int
	// OptimizeLatency is the reuse-planning time for a fixed probe
	// workload (expected ~constant: the planner is linear in the
	// workload, not in EG).
	OptimizeLatency time.Duration
	// MaterializeLatency is one full materializer Select pass (expected
	// to grow with EG), median of 3.
	MaterializeLatency time.Duration
	// OptimizeAllocs is the number of heap allocations of one probe
	// Optimize call: the flat curve counted in work, which repeats on every
	// host and under any scheduling, beside EGVertices, which is what a
	// materializer pass scores.
	OptimizeAllocs uint64
}

// FigScalability is an extension beyond the paper's figures: it merges a
// stream of synthetic workloads into one EG and measures, at exponential
// checkpoints, the optimize latency of a fixed probe workload and the
// materialization-selection latency. The paper argues the linear-time
// reuse algorithm "scales for the high number of incoming ML workloads";
// this measures that claim directly.
func (s *Suite) FigScalability() ([]ScalabilityResult, error) {
	profile := synth.DefaultProfile()
	profile.MinNodes, profile.MaxNodes = 200, 400

	srv := s.newSystem(sysCO, 1<<33)
	probe := synth.Generate(profile, 424242)

	n := s.SynthWorkloads
	if n > 2000 {
		n = 2000 // EG growth saturates the point long before 10k
	}
	checkpoints := map[int]bool{n: true}
	for c := 1; c <= n; c *= 4 {
		checkpoints[c] = true
	}
	var out []ScalabilityResult
	s.printf("Scalability (extension): server latencies vs Experiment Graph size\n")
	for wi := 1; wi <= n; wi++ {
		w := synth.Generate(profile, int64(wi))
		annotateFromCosts(w)
		srv.EG.Merge(w.DAG)
		if !checkpoints[wi] {
			continue
		}
		// Probe optimize latency (median of 5 to damp noise).
		lat := make([]time.Duration, 5)
		for k := range lat {
			start := time.Now()
			srv.Optimize(probe.DAG, nil)
			lat[k] = time.Since(start)
		}
		opt := median(lat)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Optimize(probe.DAG, nil)
		runtime.ReadMemStats(&after)
		for k := range lat[:3] {
			start := time.Now()
			srv.Store.Holding(func(held func(string) bool) {
				srv.Strategy().Select(srv.EG, held, srv.Budget(), nil)
			})
			lat[k] = time.Since(start)
		}
		mat := median(lat[:3])
		out = append(out, ScalabilityResult{
			Workloads:          wi,
			EGVertices:         srv.EG.Len(),
			OptimizeLatency:    opt,
			MaterializeLatency: mat,
			OptimizeAllocs:     after.Mallocs - before.Mallocs,
		})
		s.printf("  workloads=%-5d EG=%-8d optimize=%-12s materialize=%s\n",
			wi, srv.EG.Len(), opt, mat)
	}
	return out, nil
}

// annotateFromCosts fabricates measured times and sizes on a synthetic
// workload so EG merging sees realistic attributes.
func annotateFromCosts(w *synth.Workload) {
	for _, n := range w.DAG.Nodes() {
		if c := w.Costs.Compute[n.ID]; c > 0 && !math.IsInf(c, 1) {
			n.ComputeTime = time.Duration(c * float64(time.Second))
		}
		if l := w.Costs.Load[n.ID]; !math.IsInf(l, 1) {
			// size implied by the load cost (hundreds of MB scale)
			n.SizeBytes = int64(l * float64(1<<30))
		} else {
			n.SizeBytes = 64 << 20
		}
	}
}

func median(xs []time.Duration) time.Duration {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[len(xs)/2]
}
