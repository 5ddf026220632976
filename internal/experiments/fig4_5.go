package experiments

import (
	"time"

	"repro/internal/workloads/kaggle"
)

// Fig4Result is one bar group of Figure 4: a workload executed twice under
// one system, with EG empty before run 1.
type Fig4Result struct {
	Workload int
	System   string
	Run1     time.Duration
	Run2     time.Duration
}

// Fig4 reproduces "Repeated executions of Kaggle workloads": workloads
// 1–3, each run twice under CO, HL, and KG with a fresh server per system
// (budget: 16 GB-equivalent, §7.1). Expected shape: run 2 is an order of
// magnitude faster for CO on workloads 2–3; workload 1 improves less
// because of its external visualization.
func (s *Suite) Fig4() ([]Fig4Result, error) {
	budget, err := s.DefaultBudget()
	if err != nil {
		return nil, err
	}
	var out []Fig4Result
	s.printf("Figure 4: repeated execution of workloads 1-3 (run1/run2 seconds)\n")
	all := kaggle.AllWorkloads()
	for _, wl := range all[:3] {
		for _, kind := range []systemKind{sysCO, sysHL, sysKG} {
			srv := s.newSystem(kind, budget)
			r1, _, err := s.runWorkload(srv, wl)
			if err != nil {
				return nil, err
			}
			r2, _, err := s.runWorkload(srv, wl)
			if err != nil {
				return nil, err
			}
			res := Fig4Result{Workload: wl.ID, System: string(kind), Run1: r1.RunTime, Run2: r2.RunTime}
			out = append(out, res)
			s.printf("  W%d %-3s run1=%7.3fs run2=%7.3fs (x%.1f)\n",
				res.Workload, res.System, seconds(res.Run1), seconds(res.Run2),
				seconds(res.Run1)/maxSec(res.Run2))
		}
	}
	return out, nil
}

func maxSec(d time.Duration) float64 {
	sec := d.Seconds()
	if sec <= 1e-9 {
		return 1e-9
	}
	return sec
}

// Fig5Result is one point of Figure 5: cumulative run time after each
// workload in the 1..8 sequence.
type Fig5Result struct {
	System     string
	Cumulative []time.Duration // indexed by workload position (0..7)
	// Executed and Reused count, over the sequence, the operations the
	// system ran and the artifacts it loaded from the Experiment Graph
	// instead: the figure's saving counted in work, not in time.
	Executed, Reused int
}

// Fig5 reproduces "Execution of Kaggle workloads in sequence": all eight
// workloads executed once each, in order, per system. Expected shape: CO's
// cumulative time ends ~50% below KG; HL lands in between.
func (s *Suite) Fig5() ([]Fig5Result, error) {
	budget, err := s.DefaultBudget()
	if err != nil {
		return nil, err
	}
	var out []Fig5Result
	s.printf("Figure 5: cumulative run time of workloads 1-8 in sequence\n")
	for _, kind := range []systemKind{sysCO, sysHL, sysKG} {
		srv := s.newSystem(kind, budget)
		var cum time.Duration
		res := Fig5Result{System: string(kind)}
		for _, wl := range kaggle.AllWorkloads() {
			r, _, err := s.runWorkload(srv, wl)
			if err != nil {
				return nil, err
			}
			cum += r.RunTime
			res.Cumulative = append(res.Cumulative, cum)
			res.Executed += r.Executed
			res.Reused += r.Reused
		}
		out = append(out, res)
		s.printf("  %-3s", res.System)
		for _, c := range res.Cumulative {
			s.printf(" %7.2f", seconds(c))
		}
		s.printf("  (total %.2fs; %d operations executed, %d artifacts reused)\n",
			seconds(res.Cumulative[len(res.Cumulative)-1]), res.Executed, res.Reused)
	}
	return out, nil
}
