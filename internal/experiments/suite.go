// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each Fig*/Table* function runs the corresponding
// experiment against the synthetic workload suites and prints the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// Suite carries the shared configuration of all experiments.
type Suite struct {
	// Kaggle configures the Home-Credit data generator.
	Kaggle kaggle.Config
	// OpenML configures the credit-g data and pipelines.
	OpenML openml.Config
	// OpenMLRuns is the pipeline count for §7.3/§7.5 (paper: 2000).
	OpenMLRuns int
	// SynthWorkloads is the workload count for Figure 9d (paper: 10000).
	SynthWorkloads int
	// Profile is the EG storage location (paper: memory).
	Profile cost.Profile
	// Out receives the printed tables. Nil discards them.
	Out io.Writer

	sources *kaggle.Sources
	// totalArtifactBytes caches the ALL-materialized volume of the
	// 8-workload suite; budgets are expressed as fractions of it.
	totalArtifactBytes int64
}

// DefaultSuite returns the configuration used by cmd/experiments: full
// paper-scale counts at data Scale 1.
func DefaultSuite(out io.Writer) *Suite {
	return &Suite{
		Kaggle:         kaggle.DefaultConfig(),
		OpenML:         openml.DefaultConfig(),
		OpenMLRuns:     2000,
		SynthWorkloads: 10000,
		Profile:        cost.Memory(),
		Out:            out,
	}
}

func (s *Suite) printf(format string, args ...any) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// Sources generates (and caches) the Kaggle tables.
func (s *Suite) Sources() *kaggle.Sources {
	if s.sources == nil {
		s.sources = kaggle.Generate(s.Kaggle)
	}
	return s.sources
}

// systemKind names the composite system configurations of §7.
type systemKind string

const (
	sysCO systemKind = "CO" // this paper: storage-aware + linear reuse
	sysHL systemKind = "HL" // Helix: its materializer + max-flow reuse
	sysKG systemKind = "KG" // naive baseline: no reuse, no materialization
)

// newSystem builds a server configured as one of the §7.2 systems.
func (s *Suite) newSystem(kind systemKind, budget int64) *core.Server {
	st := store.New(s.Profile)
	cfg := materialize.Config{Alpha: 0.5, Profile: s.Profile}
	switch kind {
	case sysCO:
		return core.NewServer(st,
			core.WithStrategy(materialize.NewStorageAware(cfg)),
			core.WithPlanner(reuse.Linear{}),
			core.WithBudget(budget),
		)
	case sysHL:
		return core.NewServer(st,
			core.WithStrategy(materialize.NewHelix(cfg)),
			core.WithPlanner(reuse.Helix{}),
			core.WithBudget(budget),
		)
	default: // KG
		return core.NewServer(st,
			core.WithStrategy(materialize.NewGreedy(cfg)),
			core.WithPlanner(reuse.AllCompute{}),
			core.WithBudget(0),
		)
	}
}

// newServer builds a server with an explicit strategy/planner pair.
func (s *Suite) newServer(strategy materialize.Strategy, planner reuse.Planner, budget int64) *core.Server {
	return core.NewServer(store.New(s.Profile),
		core.WithStrategy(strategy),
		core.WithPlanner(planner),
		core.WithBudget(budget),
	)
}

// runWorkload builds and executes one Kaggle workload against the server.
func (s *Suite) runWorkload(srv *core.Server, wl kaggle.NamedWorkload) (*core.RunResult, *graph.DAG, error) {
	w := wl.Build(s.Sources())
	res, err := core.NewClient(srv).Run(w)
	return res, w, err
}

// storedArtifactBytes sums the logical sizes of stored non-source
// artifacts — the paper's "real size of the materialized artifacts".
// Sources are excluded because the updater stores them unconditionally,
// outside the materialization budget (§3.2).
func storedArtifactBytes(srv *core.Server) int64 {
	var n int64
	for _, id := range srv.Store.StoredIDs() {
		v := srv.EG.Vertex(id)
		if v == nil || v.IsSource() {
			continue
		}
		n += v.SizeBytes
	}
	return n
}

// TotalArtifactBytes measures (once) the total volume of all eligible
// artifacts the 8-workload suite generates — the analogue of the paper's
// 130 GB — by running the suite against an unbounded ALL server.
func (s *Suite) TotalArtifactBytes() (int64, error) {
	if s.totalArtifactBytes > 0 {
		return s.totalArtifactBytes, nil
	}
	srv := s.newServer(materialize.NewAll(), reuse.Linear{}, 1<<62)
	for _, wl := range kaggle.AllWorkloads() {
		if _, _, err := s.runWorkload(srv, wl); err != nil {
			return 0, fmt.Errorf("measuring artifact volume on workload %d: %w", wl.ID, err)
		}
	}
	s.totalArtifactBytes = storedArtifactBytes(srv)
	return s.totalArtifactBytes, nil
}

// BudgetLevel maps the paper's absolute budgets to fractions of the total
// artifact volume (the paper's 8/16/32/64 GB of 130 GB ≈ 1/16…1/2).
type BudgetLevel struct {
	// Label is the paper's budget name ("8GB", "16GB", ...).
	Label string
	// Fraction of the suite's total artifact bytes.
	Fraction float64
}

// BudgetLevels are the four budgets of Figures 6 and 7.
func BudgetLevels() []BudgetLevel {
	return []BudgetLevel{
		{"8GB", 1.0 / 16},
		{"16GB", 1.0 / 8},
		{"32GB", 1.0 / 4},
		{"64GB", 1.0 / 2},
	}
}

// DefaultBudget is the 16 GB-equivalent default of §7.1.
func (s *Suite) DefaultBudget() (int64, error) {
	total, err := s.TotalArtifactBytes()
	if err != nil {
		return 0, err
	}
	return int64(float64(total) / 8), nil
}

func seconds(d time.Duration) float64 { return d.Seconds() }
