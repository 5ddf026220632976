// Command collab is the client CLI of the collaborative optimizer. It runs
// the built-in workload suites against a collabd server and reports
// execution metrics, demonstrating the repeated/modified-workload savings
// of the paper end to end over the wire.
//
// Subcommands:
//
//	collab stats       -server URL
//	collab explain     -server URL [-format json|text|dot] [-kind optimize|update]
//	collab calibration -server URL [-json] [-fit TIER [-o FILE]]
//	collab kaggle      -server URL -workload N [-repeat K] [-scale S]
//	collab openml      -server URL -n N [-warmstart]
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/remote"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line and returns the exit status: 2 with the
// usage text for a missing or unknown subcommand, 1 with the subcommand's
// error.
func run(args []string, out, errw io.Writer) int {
	cmd := ""
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	var err error
	if view, ok := views[cmd]; ok {
		err = view(args, out)
	} else if workload, ok := workloads[cmd]; ok {
		err = workload(args)
	} else {
		fmt.Fprintln(errw, usageText)
		return 2
	}
	if err != nil {
		fmt.Fprintln(errw, "collab:", err)
		return 1
	}
	return 0
}

// views are the subcommands that print one of the server's report
// endpoints; each turns its flags into a query and hands it to
// fetchAndPrint. workloads are the ones that run something.
var (
	views = map[string]func(args []string, out io.Writer) error{
		"stats":       runStats,
		"explain":     runExplain,
		"calibration": runCalibration,
		"requests":    runRequests,
		"artifacts":   runArtifacts,
	}
	workloads = map[string]func(args []string) error{
		"kaggle": runKaggle,
		"openml": runOpenML,
		"run":    runSpec,
	}
)

const usageText = `usage: collab <stats|explain|calibration|requests|artifacts|kaggle|openml|run> [flags]
  stats   -server URL [-clients]                   show server EG/store state;
                                                   -clients adds the per-client
                                                   attribution table
  artifacts -server URL [-sort KEY] [-top N]       per-artifact residency &
          [-id VERTEX] [-json]                     storage economics (savings
                                                   vs rent)
  explain -server URL [-format json|text|dot]      show the optimizer's last
          [-kind optimize|update] [-target plan|eg] decision record
  calibration -server URL [-json]                  show predicted-vs-measured
          [-fit TIER [-o FILE]]                    cost calibration; -fit writes
                                                   a refitted profile as JSON
  requests -server URL [-route R] [-min D]         show the server's recent
          [-limit N] [-json]                       request flight log
  kaggle  -server URL -workload N [-repeat K]      run a Table-1 workload
  openml  -server URL -n N [-warmstart]            run OpenML-style pipelines
  run     -server URL -spec wl.json [-dot out.dot] run a declarative workload
  workload subcommands also take -trace out.json (Chrome trace of the
  executions) and -store-dir DIR (run locally against a persistent tiered
  store instead of a server; artifacts survive across invocations)`

func newRemote(serverURL string) *remote.Client {
	return remote.NewClient(serverURL, cost.Remote())
}

// target is the optimizer a workload subcommand runs against: a remote
// collabd (the default), or — with -store-dir — an in-process server whose
// artifact store persists under the directory, so successive local CLI
// invocations accumulate reusable state without a daemon.
type target struct {
	opt core.Optimizer
	rc  *remote.Client // nil in local mode
	srv *core.Server   // nil in remote mode
	dir string
}

func newTarget(serverURL, storeDir string) (*target, error) {
	if storeDir == "" {
		rc := newRemote(serverURL)
		return &target{opt: rc, rc: rc}, nil
	}
	// A directory of an older version is refused before the tier opens
	// it, which would create the directories it expects.
	if err := persist.CheckDir(storeDir); err != nil {
		return nil, fmt.Errorf("store-dir: %w", err)
	}
	disk, report, err := tier.Open(storeDir)
	if err != nil {
		return nil, fmt.Errorf("store-dir: %w", err)
	}
	st := store.NewTiered(cost.Memory(), store.Options{Disk: disk})
	srv := core.NewServer(st, core.WithWarmstart(true))
	if _, err := persist.Load(srv, storeDir); err != nil {
		return nil, fmt.Errorf("store-dir: %w", err)
	}
	fmt.Fprintf(os.Stderr, "local store %s: %d artifacts (%d vertices in EG, %d files quarantined)\n",
		storeDir, srv.Store.Len(), srv.EG.Len(), report.Quarantined)
	return &target{opt: srv, srv: srv, dir: storeDir}, nil
}

// err surfaces transport failures in remote mode; local mode has none.
func (t *target) err() error {
	if t.rc != nil {
		return t.rc.Err()
	}
	return nil
}

// printSession ends a remote run summary with what the client's session
// store did: artifacts it satisfied from its own memory, artifacts it had to
// download, and what its budget pushed out. Downloads and evictions that
// keep growing together from run to run mean the budget is thrashing.
func (t *target) printSession() {
	if t.rc == nil {
		return
	}
	s := t.rc.SessionStats()
	fmt.Printf("session store: %d hits, %d downloads, %d evictions; holds %d artifacts, %.1f MB\n",
		s.Hits, s.Misses, s.Evictions, s.Held, float64(s.Bytes)/1e6)
}

// close persists local-mode state: the memory tier syncs into the durable
// disk tier and the EG snapshot is saved beside it.
func (t *target) close() error {
	if t.srv == nil {
		return nil
	}
	return persist.Save(t.srv, t.dir)
}

// obsFlags is the client-side observability option shared by the workload
// subcommands: -trace writes a Chrome trace_event timeline of the
// executions.
type obsFlags struct {
	tracePath string
	trace     *obs.Trace
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.StringVar(&f.tracePath, "trace", "", "write a Chrome trace_event JSON timeline to this file")
	return f
}

// start turns parsed flags into executor options.
func (f *obsFlags) start() []core.ExecOption {
	if f.tracePath == "" {
		return nil
	}
	f.trace = obs.NewTrace()
	return []core.ExecOption{core.WithTrace(f.trace)}
}

// flush writes the Chrome trace file if one was requested. Called via
// defer so a partial timeline survives run errors.
func (f *obsFlags) flush() {
	if f.trace == nil {
		return
	}
	out, err := os.Create(f.tracePath)
	if err == nil {
		err = f.trace.WriteChrome(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "collab: writing trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", f.trace.Len(), f.tracePath)
}

// newFlags starts a subcommand's flag set with the -server flag every
// subcommand has.
func newFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs, fs.String("server", "http://localhost:7171", "collabd URL")
}

// fetchAndPrint is the one path behind the view subcommands: GET
// /v1/<view>?<query> from the server and copy the body to out. A non-200
// answer becomes the error, carrying the server's reason (e.g. the surface
// is disabled on that server).
func fetchAndPrint(out io.Writer, server, view string, q url.Values) error {
	u := server + "/v1/" + view
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", view, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	_, err = out.Write(body)
	return err
}

// textUnlessJSON is the query of a view whose -json flag picks the raw
// JSON over the server-rendered table.
func textUnlessJSON(asJSON bool) url.Values {
	if asJSON {
		return url.Values{}
	}
	return url.Values{"format": {"text"}}
}

func runStats(args []string, out io.Writer) error {
	fs, server := newFlags("stats")
	clients := fs.Bool("clients", false, "also print the per-client attribution of the requests the server's flight log holds")
	_ = fs.Parse(args)
	st, err := newRemote(*server).StatsE()
	if err != nil {
		return err
	}
	if st.Version != "" {
		fmt.Fprintf(out, "server: %s (%s), up %.0fs\n", st.Version, st.GoVersion, st.UptimeSeconds)
	}
	fmt.Fprintf(out, "experiment graph: %d vertices, %d materialized\n", st.Vertices, st.Materialized)
	fmt.Fprintf(out, "store: %.2f MB physical (%.2f MB logical)\n",
		float64(st.PhysicalBytes)/(1<<20), float64(st.LogicalBytes)/(1<<20))
	fmt.Fprintf(out, "tiers: %d artifacts / %.2f MB memory, %d artifacts / %.2f MB disk\n",
		st.MemoryArtifacts, float64(st.MemoryBytes)/(1<<20),
		st.DiskArtifacts, float64(st.DiskBytes)/(1<<20))
	if st.ArtifactsTracked > 0 {
		fmt.Fprintf(out, "artifact economics: %d tracked, saved %.3fs, rent %.3fs, net %+.3fs\n",
			st.ArtifactsTracked, st.ArtifactSavedSec, st.ArtifactRentSec, st.ArtifactNetSec)
	}
	if st.Runs > 0 {
		fmt.Fprintf(out, "calibration: %d measured run(s), %.3fs wall total (last %.3fs), est saved %.3fs, last speedup %.2fx\n",
			st.Runs, st.RunWallTime.Seconds(), st.LastRunWallTime.Seconds(),
			st.EstimatedSavedSec, st.LastSpeedup)
		if st.MaxDriftFamily != "" {
			fmt.Fprintf(out, "calibration drift: worst %s at %.3f\n", st.MaxDriftFamily, st.MaxDrift)
		}
	}
	fmt.Fprintf(out, "contention: lock wait %.3fs, lock hold %.3fs, store lock wait %.3fs\n",
		st.LockWaitSec, st.LockHoldSec, st.StoreLockWaitSec)
	if *clients {
		fmt.Fprintln(out)
		return fetchAndPrint(out, *server, "clients", url.Values{"format": {"text"}})
	}
	return nil
}

// runArtifacts prints the server's artifact ledger (GET /v1/artifacts): the
// per-artifact economics report.
func runArtifacts(args []string, out io.Writer) error {
	fs, server := newFlags("artifacts")
	sortBy := fs.String("sort", "net", "ordering: net|saved|rent|reuse|bytes|id")
	top := fs.Int("top", 0, "only the first N artifacts after sorting (0 = all)")
	id := fs.String("id", "", "only the artifact with this vertex ID")
	asJSON := fs.Bool("json", false, "print the raw JSON instead of the table")
	_ = fs.Parse(args)

	q := textUnlessJSON(*asJSON)
	q.Set("sort", *sortBy)
	if *top > 0 {
		q.Set("top", fmt.Sprint(*top))
	}
	if *id != "" {
		q.Set("id", *id)
	}
	return fetchAndPrint(out, *server, "artifacts", q)
}

// runExplain prints the server's most recent optimizer decision record
// (GET /v1/explain). With -target eg and -format dot it instead renders
// the whole Experiment Graph annotated with costs and materialization
// flags.
func runExplain(args []string, out io.Writer) error {
	fs, server := newFlags("explain")
	format := fs.String("format", "text", "output format: json|text|dot")
	kind := fs.String("kind", "optimize", "record kind: optimize|update")
	target := fs.String("target", "plan", "plan: the last decision record; eg: the whole Experiment Graph (requires -format dot)")
	_ = fs.Parse(args)

	q := url.Values{"format": {*format}}
	if *target == "plan" {
		q.Set("kind", *kind)
	} else {
		q.Set("target", *target) // the server refuses any but eg
	}
	return fetchAndPrint(out, *server, "explain", q)
}

// runCalibration prints the server's predicted-vs-measured cost report
// (GET /v1/calibration). With -fit it instead extracts the least-squares
// refitted profile for one load tier and writes it as cost profile JSON,
// ready for collabd's -profile flag. Every fetch a client makes from
// collabd is a remote one, so against collabd the report fits remote or
// nothing.
func runCalibration(args []string, out io.Writer) error {
	fs, server := newFlags("calibration")
	asJSON := fs.Bool("json", false, "print the raw JSON report instead of the table")
	fitTier := fs.String("fit", "", "write the refitted profile of this load tier, one the report fits (collabd's fetches are all remote)")
	outPath := fs.String("o", "", "with -fit, write the profile JSON to this file instead of stdout")
	_ = fs.Parse(args)

	if *fitTier == "" {
		return fetchAndPrint(out, *server, "calibration", textUnlessJSON(*asJSON))
	}
	report, err := newRemote(*server).CalibrationE()
	if err != nil {
		return err
	}
	var fitted []string
	for _, fit := range report.Fits {
		if fit.Tier != *fitTier {
			fitted = append(fitted, fit.Tier)
			continue
		}
		latency, err := time.ParseDuration(fit.Latency)
		if err != nil {
			return fmt.Errorf("calibration: bad fitted latency %q: %w", fit.Latency, err)
		}
		blob, err := cost.EncodeProfileJSON(cost.Profile{
			Name:           "fitted:" + fit.Tier,
			Latency:        latency,
			BytesPerSecond: fit.BytesPerSecond,
		})
		if err != nil {
			return err
		}
		if *outPath == "" {
			_, err = out.Write(blob)
			return err
		}
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote fitted %s profile (%d samples) to %s\n",
			fit.Tier, fit.Samples, *outPath)
		return nil
	}
	if len(fitted) == 0 {
		return fmt.Errorf("calibration: no fit for tier %q: the report fits no tier yet (a tier needs >= %d observed fetches)",
			*fitTier, calib.MinFitSamples)
	}
	return fmt.Errorf("calibration: no fit for tier %q: the report fits %s", *fitTier, strings.Join(fitted, ", "))
}

// runRequests prints the server's flight log of finished requests
// (GET /v1/requests), one line per request, or the raw JSON with -json.
func runRequests(args []string, out io.Writer) error {
	fs, server := newFlags("requests")
	route := fs.String("route", "", "only requests to this route (e.g. /v1/optimize)")
	min := fs.String("min", "", "only requests at least this slow (e.g. 50ms)")
	limit := fs.Int("limit", 0, "only the most recent N matches (0 = all)")
	asJSON := fs.Bool("json", false, "print the raw JSON instead of the table")
	_ = fs.Parse(args)

	q := textUnlessJSON(*asJSON)
	if *route != "" {
		q.Set("route", *route)
	}
	if *min != "" {
		q.Set("min", *min)
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	return fetchAndPrint(out, *server, "requests", q)
}

func runKaggle(args []string) error {
	fs := flag.NewFlagSet("kaggle", flag.ExitOnError)
	server := fs.String("server", "http://localhost:7171", "collabd URL")
	workload := fs.Int("workload", 1, "Table 1 workload id (1-8), 0 = all")
	repeat := fs.Int("repeat", 1, "times to run (repeats exercise reuse)")
	scale := fs.Int("scale", 1, "data scale factor")
	seed := fs.Int64("seed", 42, "data seed")
	storeDir := fs.String("store-dir", "", "run against a local persistent store instead of -server")
	of := registerObsFlags(fs)
	_ = fs.Parse(args)
	opts := of.start()
	defer of.flush()

	sources := kaggle.Generate(kaggle.Config{Scale: *scale, Seed: *seed})
	tg, err := newTarget(*server, *storeDir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := tg.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "collab:", cerr)
		}
	}()
	client := core.NewClient(tg.opt, opts...)
	for _, wl := range kaggle.AllWorkloads() {
		if *workload != 0 && wl.ID != *workload {
			continue
		}
		for r := 1; r <= *repeat; r++ {
			res, err := client.Run(wl.Build(sources))
			if err != nil {
				return fmt.Errorf("workload %d run %d: %w", wl.ID, r, err)
			}
			if terr := tg.err(); terr != nil {
				return fmt.Errorf("workload %d run %d transport: %w", wl.ID, r, terr)
			}
			fmt.Printf("W%d run %d: %.3fs wall %.3fs (executed %d, reused %d, plan overhead %s)\n",
				wl.ID, r, res.RunTime.Seconds(), res.WallTime.Seconds(),
				res.Executed, res.Reused, res.OptimizeOverhead)
		}
	}
	tg.printSession()
	return nil
}

// runSpec executes a declarative JSON workload (internal/spec) against a
// server, optionally writing the executed DAG as Graphviz DOT.
func runSpec(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	server := fs.String("server", "http://localhost:7171", "collabd URL")
	specPath := fs.String("spec", "", "path to the JSON workload spec")
	dotPath := fs.String("dot", "", "write the executed DAG as Graphviz DOT to this file")
	storeDir := fs.String("store-dir", "", "run against a local persistent store instead of -server")
	of := registerObsFlags(fs)
	_ = fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("run: -spec is required")
	}
	opts := of.start()
	defer of.flush()
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	wl, err := spec.Parse(raw)
	if err != nil {
		return err
	}
	dag, nodes, err := wl.Build(nil)
	if err != nil {
		return err
	}
	tg, err := newTarget(*server, *storeDir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := tg.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "collab:", cerr)
		}
	}()
	res, err := core.NewClient(tg.opt, opts...).Run(dag)
	if err != nil {
		return err
	}
	if terr := tg.err(); terr != nil {
		return fmt.Errorf("transport: %w", terr)
	}
	fmt.Printf("ran %s: %.3fs wall %.3fs (executed %d, reused %d, warmstarted %d)\n",
		*specPath, res.RunTime.Seconds(), res.WallTime.Seconds(),
		res.Executed, res.Reused, res.Warmstarted)
	tg.printSession()
	for _, step := range wl.Steps {
		n := nodes[step.ID]
		if agg, ok := n.Content.(*graph.AggregateArtifact); ok {
			fmt.Printf("  %s = %g\n", step.ID, agg.Value)
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := dag.WriteDOT(f, *specPath); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
	return nil
}

func runOpenML(args []string) error {
	fs := flag.NewFlagSet("openml", flag.ExitOnError)
	server := fs.String("server", "http://localhost:7171", "collabd URL")
	n := fs.Int("n", 20, "number of pipelines to run")
	warm := fs.Bool("warmstart", false, "request warmstarting")
	storeDir := fs.String("store-dir", "", "run against a local persistent store instead of -server")
	of := registerObsFlags(fs)
	_ = fs.Parse(args)
	opts := of.start()
	defer of.flush()

	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	pipes := openml.SamplePipelines(cfg, *n, *warm)
	tg, err := newTarget(*server, *storeDir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := tg.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "collab:", cerr)
		}
	}()
	client := core.NewClient(tg.opt, opts...)
	for i, p := range pipes {
		w := p.Build(frame)
		res, err := client.Run(w)
		if err != nil {
			return fmt.Errorf("pipeline %d (%s): %w", i, p, err)
		}
		if terr := tg.err(); terr != nil {
			return fmt.Errorf("pipeline %d transport: %w", i, terr)
		}
		fmt.Printf("pipeline %3d %-22s %.3fs wall %.3fs quality=%.3f (executed %d, reused %d, warmstarted %d)\n",
			i, p, res.RunTime.Seconds(), res.WallTime.Seconds(),
			openml.ModelQuality(w), res.Executed, res.Reused, res.Warmstarted)
	}
	tg.printSession()
	return nil
}
