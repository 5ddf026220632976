package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// job is one Client.Run: a freshly built DAG (execution fills it with
// content, so it cannot be reused) and the check of what the run produced.
type job struct {
	build func() *repro.DAG
	check func(dag *repro.DAG, res *repro.RunResult) error
}

// prepared is a workload's generated input: what set-up runs once against
// the server, and the fixed list of measured steps.
type prepared struct {
	prime []job
	steps [][]job
}

// sizing is how big a workload's inputs are. The driver's sizes are fixed
// below; the smoke test uses toy ones.
type sizing struct {
	kaggleScale int
	// kagglePass is how many of the Table-1 workloads, from W1 on, make up
	// a pass over the Kaggle sequence.
	kagglePass int
	steps      int
}

// workload is one named, seeded traffic shape.
type workload struct {
	name string
	why  string
	// stepsPerSecond is the reference host's measured step rate; with
	// -seconds it fixes the length of the run list, so that every run of a
	// workload does the same work however long it takes.
	stepsPerSecond float64
	// clients is the number of closed-loop client goroutines.
	clients int
	// coldPerStep runs every step against a newly spawned, empty server.
	coldPerStep bool
	// tiered primes an unbounded server with a store directory, then
	// restarts it with a quarter of the primed physical bytes as memory
	// budget and the disk cost profile.
	tiered bool
	// bareArgs, when set, are the collabd flags of the instrumentation-off
	// rerun that yields obs.bare_wall_s.
	bareArgs []string
	// burstEvery is the number of steps between two bursts of reference
	// work (see hostclock.go) and burstUnits the size of a burst: about a
	// twentieth of the time the steps between take. A cold-per-step
	// workload bursts between the runs of a step instead.
	burstEvery, burstUnits int
	// prepare generates the inputs; it calls tick between the parts of
	// that work, for the reference bursts of set-up.
	prepare func(seed int64, sz sizing, tick func()) *prepared
}

const kaggleScale = 2

var workloads = []*workload{
	{
		name:           "kaggle_cold",
		why:            "Table-1 sequence W1..W8 against an empty server per pass: first-run tax, upload/update bound (Fig 9d lens)",
		stepsPerSecond: 0.34, clients: 1, coldPerStep: true,
		burstUnits: 30,
		prepare:    prepareKaggleCold,
	},
	{
		name:           "kaggle_variants",
		why:            "hyperparameter variants on primed shared features: fetch + client compute bound, bypasses upload (Fig 5/7b)",
		stepsPerSecond: 30, clients: 1,
		burstEvery: 5, burstUnits: 12,
		prepare: func(seed int64, sz sizing, tick func()) *prepared {
			return prepareVariants(seed, sz, allFeatureSets, tick)
		},
	},
	{
		name:           "tiered_variants",
		why:            "variants on the W2/W3 features with memory budget a quarter of the store: disk-tier reads, disk-priced plans",
		stepsPerSecond: 25, clients: 1, tiered: true,
		burstEvery: 5, burstUnits: 12,
		prepare: func(seed int64, sz sizing, tick func()) *prepared {
			return prepareVariants(seed, sz, costlyFeatureSets, tick)
		},
	},
	{
		name:           "openml_stream",
		why:            "small OpenML pipelines, one client: control-plane bound, EG and materializer cost grow (Fig 8a/10a)",
		stepsPerSecond: 60, clients: 1,
		burstEvery: 10, burstUnits: 10,
		bareArgs: []string{"-explain", "0", "-requests", "0", "-clients", "0", "-artifacts", "0"},
		prepare:  prepareOpenML,
	},
	{
		name:           "shared_2c",
		why:            "the openml_stream list split over two concurrent clients: what the single server lock lets scale",
		stepsPerSecond: 60, clients: 2,
		// Longer segments than openml_stream: at the end of each, one
		// client waits for the other to finish its step.
		burstEvery: 30, burstUnits: 20,
		prepare: prepareOpenML,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stepsFor sizes the run list from -seconds.
func (w *workload) stepsFor(seconds int) int {
	n := int(math.Round(w.stepsPerSecond * float64(seconds)))
	if n < 2 {
		n = 2
	}
	return n
}

// naiveClient runs DAGs in-process with every vertex computed: the
// reference the optimized runs must reproduce, and the paper's baseline.
func naiveClient() *repro.Client {
	return repro.NewClient(repro.NewMemoryServer(
		repro.WithPlanner(repro.AllComputeReuse{}), repro.WithBudget(0)))
}

// fingerprint maps vertex ID → the scalar that summarizes its content:
// an aggregate's value or a model's quality.
func fingerprint(dag *repro.DAG) map[string]float64 {
	out := make(map[string]float64)
	for _, n := range dag.Nodes() {
		switch c := n.Content.(type) {
		case *repro.AggregateArtifact:
			out[n.ID] = c.Value
		case *repro.ModelArtifact:
			out[n.ID] = c.Quality
		}
	}
	return out
}

// sameAsNaive checks an executed DAG against the naive fingerprint of the
// same DAG: every terminal aggregate must be present, and every aggregate or
// model the run holds must equal the naive one bit for bit.
func sameAsNaive(dag *repro.DAG, want map[string]float64) error {
	got := fingerprint(dag)
	for _, t := range dag.Terminals() {
		if t.Kind != repro.AggregateKind {
			continue
		}
		if _, ok := got[t.ID]; !ok {
			return fmt.Errorf("terminal %s (%s) has no content", t.Name, t.ID)
		}
	}
	for id, g := range got {
		w, ok := want[id]
		if !ok {
			return fmt.Errorf("vertex %s is not in the naive run", id)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("vertex %s = %v, naive run has %v", id, g, w)
		}
	}
	return nil
}

// naiveReference executes dag with every vertex computed and returns its
// fingerprint.
func naiveReference(dag *repro.DAG) map[string]float64 {
	if _, err := naiveClient().Run(dag); err != nil {
		panic(fmt.Sprintf("naive reference run failed: %v", err))
	}
	return fingerprint(dag)
}

// kaggleJobs returns the first n Table-1 workloads over src, each checked
// against its naive run.
func kaggleJobs(src *kaggle.Sources, n int, tick func()) []job {
	var jobs []job
	for _, wl := range kaggle.AllWorkloads()[:n] {
		build := wl.Build
		want := naiveReference(build(src))
		tick()
		jobs = append(jobs, job{
			build: func() *repro.DAG { return build(src) },
			check: func(dag *repro.DAG, _ *repro.RunResult) error { return sameAsNaive(dag, want) },
		})
	}
	return jobs
}

func prepareKaggleCold(seed int64, sz sizing, tick func()) *prepared {
	src := kaggle.Generate(kaggle.Config{Scale: sz.kaggleScale, Seed: seed})
	tick()
	pass := kaggleJobs(src, sz.kagglePass, tick)
	p := &prepared{}
	for i := 0; i < sz.steps; i++ {
		p.steps = append(p.steps, pass)
	}
	return p
}

// variant is one modified workload: a feature set (W1, W2 or W3) and the
// GBT trained on it.
type variant struct {
	base int
	spec repro.ModelSpec
}

// variantChecked is the stride of variants compared against the naive run.
const variantChecked = 20

// genVariants draws n variants from the seed, cycling over the given
// feature sets. Every tenth one exactly repeats an earlier variant (the
// paper's Fig 4 "repeated" case); all others are pairwise distinct because
// each gets its own model seed.
func genVariants(seed int64, n int, sets []int) []variant {
	rng := rand.New(rand.NewSource(seed ^ 0x7661726961))
	out := make([]variant, n)
	for i := range out {
		if i%10 == 9 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		out[i] = variant{
			base: sets[i%len(sets)],
			spec: repro.ModelSpec{
				Kind: "gbt",
				Params: map[string]float64{
					"n_trees": float64(6 + rng.Intn(7)),
					"depth":   float64(2 + rng.Intn(2)),
					"lr":      []float64{0.05, 0.1, 0.2}[rng.Intn(3)],
				},
				Seed: 1000 + int64(i),
			},
		}
	}
	return out
}

// featureSets are the workloads whose training input the variants share.
var featureSets = []func(*kaggle.Sources) *repro.DAG{kaggle.Workload1, kaggle.Workload2, kaggle.Workload3}

var (
	allFeatureSets = []int{0, 1, 2}
	// costlyFeatureSets leaves W1 out. Recomputing W1's features from the
	// sources the client holds costs about what the planner prices their
	// load from the disk tier at, so on a tiered server the plan flips
	// between the two from run to run and wire_mb with it (by a quarter).
	// W2 and W3 (joins, group-bys) are always worth loading.
	costlyFeatureSets = []int{1, 2}
)

// trainingInput builds feature set base and returns a DAG holding only the
// ancestors of the vertex its Train operations read, and that vertex.
func trainingInput(src *kaggle.Sources, base int) (*repro.DAG, *repro.Node) {
	full := featureSets[base](src)
	var input *repro.Node
	for _, n := range full.Nodes() {
		if _, ok := n.Op.(*repro.Train); ok {
			input = n.Parents[0]
			break
		}
	}
	if input == nil {
		panic("kaggle workload has no Train operation")
	}
	slim := repro.NewWorkload()
	for _, n := range full.TopoOrder(input) {
		slim.DAG.Adopt(n)
	}
	return slim.DAG, input
}

// addTo hangs the variant's Train and Evaluate off input and returns the
// model vertex.
func (v variant) addTo(dag *repro.DAG, input *repro.Node) *repro.Node {
	model := dag.Apply(input, &repro.Train{Spec: v.spec, Label: "TARGET"})
	dag.Combine(repro.Evaluate{Label: "TARGET", Metric: "auc"}, model, input)
	return model
}

func prepareVariants(seed int64, sz sizing, sets []int, tick func()) *prepared {
	src := kaggle.Generate(kaggle.Config{Scale: sz.kaggleScale, Seed: seed})
	tick()
	variants := genVariants(seed, sz.steps, sets)

	// One naive run per feature set computes the reference of every
	// checked variant on it: the features once, each model once.
	want := make(map[string]float64)
	for _, base := range sets {
		dag, input := trainingInput(src, base)
		for i := 0; i < len(variants); i += variantChecked {
			if variants[i].base == base {
				variants[i].addTo(dag, input)
			}
		}
		for id, v := range naiveReference(dag) {
			want[id] = v
		}
		tick()
	}

	p := &prepared{prime: kaggleJobs(src, sz.kagglePass, tick)}
	for i, v := range variants {
		v := v
		j := job{build: func() *repro.DAG {
			dag, input := trainingInput(src, v.base)
			v.addTo(dag, input)
			return dag
		}}
		if i%variantChecked == 0 {
			j.check = func(dag *repro.DAG, _ *repro.RunResult) error { return sameAsNaive(dag, want) }
		}
		p.steps = append(p.steps, []job{j})
	}
	return p
}

// pipelineChecked is the stride of OpenML pipelines compared against the
// naive run when they were not warmstarted.
const pipelineChecked = 25

// stratifiedPipelines draws n warmstartable pipelines from the seed so that
// every seed gets the same mix of pipeline shapes (scaler, feature count,
// learner) and differs in hyperparameters and order only. A plain draw of
// n makes the share of the slow learners, and with it wall_s and wire_mb,
// swing by several percent from seed to seed. The mix is the sampler's
// own: shape frequencies are read off a pool twenty times the size, and
// the first pipelines of the pool that fit their shape's quota are taken.
func stratifiedPipelines(cfg openml.Config, n int) []openml.Pipeline {
	pool := openml.SamplePipelines(cfg, 20*n, true)
	inPool := make(map[string]int)
	for _, p := range pool {
		inPool[p.String()]++
	}
	taken := make(map[string]int)
	used := make([]bool, len(pool))
	out := make([]openml.Pipeline, 0, n)
	for i, p := range pool {
		shape := p.String()
		if len(out) < n && taken[shape] < int(math.Round(float64(n)*float64(inPool[shape])/float64(len(pool)))) {
			taken[shape]++
			used[i] = true
			out = append(out, p)
		}
	}
	// Rounding can leave the quotas a few short of n.
	for i, p := range pool {
		if len(out) < n && !used[i] {
			out = append(out, p)
		}
	}
	return out
}

func prepareOpenML(seed int64, sz sizing, tick func()) *prepared {
	cfg := openml.DefaultConfig()
	cfg.Seed = seed
	frame := openml.GenerateDataset(cfg)
	p := &prepared{}
	for i, pl := range stratifiedPipelines(cfg, sz.steps) {
		pl := pl
		want := absent
		if i%pipelineChecked == 0 {
			dag := pl.Build(frame)
			if _, err := naiveClient().Run(dag); err != nil {
				panic(fmt.Sprintf("naive reference run failed: %v", err))
			}
			want = openml.EvalScore(dag)
			tick()
		}
		p.steps = append(p.steps, []job{{
			build: func() *repro.DAG { return pl.Build(frame) },
			check: func(dag *repro.DAG, res *repro.RunResult) error {
				got := openml.EvalScore(dag)
				if math.IsNaN(got) || got < 0 || got > 1 {
					return fmt.Errorf("pipeline %s scored %v, want a value in [0,1]", pl, got)
				}
				// A warmstarted model legitimately differs from the
				// naive one, and so does one loaded from the EG, which
				// an earlier, warmstarted run of the same pipeline may
				// have put there. A model trained from scratch in this
				// run must reproduce the naive one exactly.
				if !math.IsNaN(want) && res.Warmstarted == 0 && !modelFromEG(dag) &&
					math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("pipeline %s scored %v, naive run has %v", pl, got, want)
				}
				return nil
			},
		}})
	}
	return p
}

// modelFromEG reports whether the run loaded its model or its score from
// the Experiment Graph instead of computing them.
func modelFromEG(dag *repro.DAG) bool {
	for _, n := range dag.Nodes() {
		if n.LoadedFromEG && (n.Kind == repro.ModelKind || n.Kind == repro.AggregateKind) {
			return true
		}
	}
	return false
}

// warmupJobs are ten runs of a toy DAG on a source of its own: they open
// the connection and push every wire type through both gob codecs (optimize,
// update, upload on the first run, fetch on the rest) before timing starts.
func warmupJobs() []job {
	n := 64
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
		if x[i] > 0 {
			y[i] = 1
		}
	}
	frame, err := repro.NewFrameFromColumns(repro.NewFloatColumn("x", x), repro.NewFloatColumn("y", y))
	if err != nil {
		panic(err)
	}
	build := func() *repro.DAG {
		w := repro.NewWorkload()
		cur := w.Apply(w.AddSource("bench-warmup", frame), repro.FillNA{})
		model := w.Apply(cur, &repro.Train{
			Spec:  repro.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 5, "lr": 0.1}},
			Label: "y",
		})
		w.Combine(repro.Evaluate{Label: "y", Metric: "accuracy"}, model, cur)
		return w.DAG
	}
	jobs := make([]job, 10)
	for i := range jobs {
		jobs[i] = job{build: build}
	}
	return jobs
}
