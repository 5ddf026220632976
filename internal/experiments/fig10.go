package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ml"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/workloads/openml"
)

// Fig10Result captures one system's warmstarting curves: cumulative run
// time and per-workload accuracy.
type Fig10Result struct {
	System     string
	Cumulative []time.Duration
	Accuracy   []float64
	// Warmstarted counts training operations that adopted a donor.
	Warmstarted int
	// Epochs sums the gradient epochs of the models the system trained:
	// the training cost of Figure 10(a) counted in work, not in time, so it
	// is the same on every host and under any scheduling.
	Epochs int
}

// Fig10 reproduces the warmstarting experiment: the OpenML pipelines
// executed under OML (no reuse), CO−W (reuse without warmstarting), and
// CO+W (reuse plus warmstarting). Expected shape (a): OML ≈ CO−W because
// data transforms are cheap, while CO+W is ~3x faster since training
// dominates; (b): the cumulative accuracy delta of CO+W over OML grows
// (warmstarting helps iteration-capped models converge).
func (s *Suite) Fig10() ([]Fig10Result, error) {
	frame := openml.GenerateDataset(s.OpenML)
	systems := []struct {
		name      string
		warmstart bool
		srv       *core.Server
	}{
		{"OML", false, s.newSystem(sysKG, 0)},
		{"CO-W", false, s.newSystem(sysCO, openMLBudget)},
		{"CO+W", true, newWarmstartServer(s)},
	}
	var out []Fig10Result
	s.printf("Figure 10: warmstarting on %d OpenML pipelines\n", s.OpenMLRuns)
	for _, sys := range systems {
		pipes := openml.SamplePipelines(s.OpenML, s.OpenMLRuns, sys.warmstart)
		client := core.NewClient(sys.srv)
		res := Fig10Result{System: sys.name}
		var cum time.Duration
		for _, p := range pipes {
			w := p.Build(frame)
			r, err := client.Run(w)
			if err != nil {
				return nil, err
			}
			cum += r.RunTime
			res.Warmstarted += r.Warmstarted
			res.Epochs += trainedEpochs(w)
			res.Cumulative = append(res.Cumulative, cum)
			res.Accuracy = append(res.Accuracy, openml.EvalScore(w))
		}
		out = append(out, res)
		s.printf("  %-5s total=%8.2fs warmstarted=%d epochs=%d\n", sys.name, seconds(cum), res.Warmstarted, res.Epochs)
	}
	// Cumulative Δ accuracy between CO+W and OML (Figure 10b).
	var oml, cow *Fig10Result
	for i := range out {
		switch out[i].System {
		case "OML":
			oml = &out[i]
		case "CO+W":
			cow = &out[i]
		}
	}
	if oml != nil && cow != nil {
		var delta float64
		for i := range oml.Accuracy {
			delta += cow.Accuracy[i] - oml.Accuracy[i]
		}
		s.printf("  cumulative Δ accuracy (CO+W − OML) = %.3f (avg %.4f per workload)\n",
			delta, delta/float64(len(oml.Accuracy)))
	}
	return out, nil
}

// trainedEpochs sums the epochs of the logistic regressions (the one
// iteratively trained learner the OpenML sampler draws) that the run of w
// fitted itself; a model loaded from EG cost no epochs.
func trainedEpochs(w *graph.DAG) int {
	total := 0
	for _, n := range w.Nodes() {
		if ma, ok := n.Content.(*graph.ModelArtifact); ok && !n.LoadedFromEG {
			if m, ok := ma.Model.(*ml.LogisticRegression); ok {
				total += m.EpochsRun
			}
		}
	}
	return total
}

// newWarmstartServer builds the CO system with warmstart donor search on.
func newWarmstartServer(s *Suite) *core.Server {
	cfg := materialize.Config{Alpha: 0.5, Profile: s.Profile}
	return core.NewServer(store.New(s.Profile),
		core.WithStrategy(materialize.NewStorageAware(cfg)),
		core.WithPlanner(reuse.Linear{}),
		core.WithBudget(openMLBudget),
		core.WithWarmstart(true),
	)
}
