package experiments

import (
	"time"

	"repro/internal/cost"
	"repro/internal/materialize"
	"repro/internal/reuse"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/synth"
)

// Fig9Result is one curve of Figures 9(a)/(b): cumulative run time per
// workload for one (materialization strategy, reuse planner) pair.
type Fig9Result struct {
	Strategy   string
	Planner    string
	Cumulative []time.Duration
}

// reusePlanners are the four §7.4 planners.
func reusePlanners() []reuse.Planner {
	return []reuse.Planner{reuse.Linear{}, reuse.Helix{}, reuse.AllMaterialized{}, reuse.AllCompute{}}
}

// Fig9ab reproduces the reuse-method comparison under heuristics-based (a)
// and storage-aware (b) materialization at the default budget. Expected
// shape: ALL_C flat-worst; LN ≈ HL best; ALL_M close but worse where
// loading beats recomputing only sometimes.
func (s *Suite) Fig9ab() ([]Fig9Result, error) {
	budget, err := s.DefaultBudget()
	if err != nil {
		return nil, err
	}
	cfg := materialize.Config{Alpha: 0.5, Profile: s.Profile}
	var out []Fig9Result
	s.printf("Figure 9(a,b): cumulative run time by reuse planner\n")
	for _, strat := range []materialize.Strategy{materialize.NewGreedy(cfg), materialize.NewStorageAware(cfg)} {
		for _, planner := range reusePlanners() {
			srv := s.newServer(strat, planner, budget)
			res := Fig9Result{Strategy: strat.Name(), Planner: planner.Name()}
			var cum time.Duration
			for _, wl := range kaggle.AllWorkloads() {
				r, _, err := s.runWorkload(srv, wl)
				if err != nil {
					return nil, err
				}
				cum += r.RunTime
				res.Cumulative = append(res.Cumulative, cum)
			}
			out = append(out, res)
			s.printf("  %-3s %-6s total=%8.2fs\n", res.Strategy, res.Planner, seconds(cum))
		}
	}
	return out, nil
}

// Fig9cResult is one speedup curve of Figure 9(c).
type Fig9cResult struct {
	Planner string
	Speedup []float64
}

// Fig9c derives the cumulative speedup vs ALL_C under storage-aware
// materialization from the Fig9ab data. Expected shape: LN and HL around
// 2x after all workloads, ALL_M slightly behind.
func (s *Suite) Fig9c(ab []Fig9Result) []Fig9cResult {
	var base []time.Duration
	for _, r := range ab {
		if r.Strategy == "SA" && r.Planner == "ALL_C" {
			base = r.Cumulative
		}
	}
	var out []Fig9cResult
	s.printf("Figure 9(c): cumulative speedup vs ALL_C (storage-aware)\n")
	for _, r := range ab {
		if r.Strategy != "SA" || r.Planner == "ALL_C" {
			continue
		}
		res := Fig9cResult{Planner: r.Planner}
		for i := range r.Cumulative {
			res.Speedup = append(res.Speedup, seconds(base[i])/maxSec(r.Cumulative[i]))
		}
		out = append(out, res)
		s.printf("  %-6s", res.Planner)
		for _, v := range res.Speedup {
			s.printf(" %5.2f", v)
		}
		s.printf("\n")
	}
	return out
}

// Fig9Disk extends §7.4's closing remark: with EG on disk instead of in
// memory, load costs are no longer near-free and the cost-based planners
// (LN, HL) beat ALL_M by a wider margin. It runs the storage-aware
// sequence with a disk cost profile.
func (s *Suite) Fig9Disk() ([]Fig9Result, error) {
	disk := *s
	disk.Profile = cost.Disk()
	disk.sources = s.sources
	disk.totalArtifactBytes = s.totalArtifactBytes
	budget, err := s.DefaultBudget()
	if err != nil {
		return nil, err
	}
	cfg := materialize.Config{Alpha: 0.5, Profile: disk.Profile}
	var out []Fig9Result
	s.printf("Figure 9 (extension): disk-resident EG, storage-aware materialization\n")
	for _, planner := range reusePlanners() {
		srv := disk.newServer(materialize.NewStorageAware(cfg), planner, budget)
		res := Fig9Result{Strategy: "SA-disk", Planner: planner.Name()}
		var cum time.Duration
		for _, wl := range kaggle.AllWorkloads() {
			r, _, err := disk.runWorkload(srv, wl)
			if err != nil {
				return nil, err
			}
			cum += r.RunTime
			res.Cumulative = append(res.Cumulative, cum)
		}
		out = append(out, res)
		s.printf("  %-8s %-6s total=%8.2fs\n", res.Strategy, res.Planner, seconds(cum))
	}
	return out, nil
}

// Fig9dResult captures the reuse-overhead comparison: cumulative planning
// time after each synthetic workload, sampled at checkpoints.
type Fig9dResult struct {
	Planner     string
	Checkpoints []int
	Cumulative  []time.Duration
	// Total is the overhead after all workloads.
	Total time.Duration
}

// Fig9d reproduces the LN-vs-HL overhead measurement on synthetic
// workloads of 500–2000 vertices. Expected shape: LN grows linearly and
// stays orders of magnitude below HL's polynomial max-flow cost.
func (s *Suite) Fig9d() ([]Fig9dResult, error) {
	n := s.SynthWorkloads
	profile := synth.DefaultProfile()
	planners := []reuse.Planner{reuse.Linear{}, reuse.Helix{}}
	results := make([]Fig9dResult, len(planners))
	for i, p := range planners {
		results[i] = Fig9dResult{Planner: p.Name()}
	}
	checkpoints := map[int]bool{}
	for c := 1; c <= n; c *= 10 {
		checkpoints[c] = true
	}
	checkpoints[n] = true

	s.printf("Figure 9(d): reuse-planning overhead on %d synthetic workloads\n", n)
	for wi := 1; wi <= n; wi++ {
		w := synth.Generate(profile, int64(wi))
		for pi, p := range planners {
			start := time.Now()
			p.Plan(w.DAG, w.Costs)
			results[pi].Total += time.Since(start)
			if checkpoints[wi] {
				results[pi].Checkpoints = append(results[pi].Checkpoints, wi)
				results[pi].Cumulative = append(results[pi].Cumulative, results[pi].Total)
			}
		}
	}
	for _, r := range results {
		s.printf("  %-3s", r.Planner)
		for i, c := range r.Checkpoints {
			s.printf("  [%d]=%.3fs", c, seconds(r.Cumulative[i]))
		}
		s.printf("\n")
	}
	if len(results) == 2 && results[0].Total > 0 {
		s.printf("  HL/LN overhead ratio: %.1fx\n", float64(results[1].Total)/float64(results[0].Total))
	}
	return results, nil
}
