// Command bench is the repository's benchmark: it builds and spawns the
// real collabd on a loopback port and drives it from this one process
// through the public client path (repro.NewClient over
// repro.NewRemoteOptimizer), in a closed loop, on five named workloads.
//
//	go run ./bench -workload <name> [-seed n] [-seconds n] [-trace 0|1]
//	go run ./bench -all        every workload, untraced then traced, merged
//	go run ./bench -selfcheck  two sets of runs of the same code, compared
//
// The last line of standard output of a single run is one JSON object with
// the keys correct, attempted, failed and metrics; everything meant for a
// reader goes to standard error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/workloads/kaggle"
)

// outDir receives span files and merged results.
const outDir = "bench/out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: kaggle_cold|kaggle_variants|tiered_variants|openml_stream|shared_2c")
		seed      = flag.Int64("seed", 42, "seed of every generated input")
		seconds   = flag.Int("seconds", defaultSeconds, "sizes the fixed run list: the measured phase takes about this long on the reference host")
		trace     = flag.Int("trace", 0, "1: record spans, scrape the server around the phase, rerun prefixes in-process/naive/bare, report per-layer metrics")
		out       = flag.String("out", "", "also write the run's full result as JSON to this file")
		untraced  = flag.Float64("untraced-wall", 0, "wall_s of an untraced run of the same workload and seed, for bench.trace_overhead_frac")
		all       = flag.Bool("all", false, "run every workload untraced then traced and merge the results into "+outDir+"/results.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of runs of every workload and compare their medians against the bounds")
		runs      = flag.Int("runs", 5, "runs per workload and set under -selfcheck")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as this code defines it")
	)
	flag.Parse()

	switch {
	case *manifest:
		b, _ := json.MarshalIndent(currentManifest(), "", "  ")
		fmt.Println(string(b))
		return
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *runs))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOnce(w, *seed, *seconds, *trace == 1, *untraced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print(os.Stderr)
	if *out != "" {
		if err := res.writeFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 13

// runOnce builds collabd and runs one workload against it.
func runOnce(w *workload, seed int64, seconds int, traced bool, untracedWall float64) (*result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if w.clients > nproc || w.clients > maxClients {
		return nil, fmt.Errorf("%s needs %d client goroutines, host has %d CPUs", w.name, w.clients, nproc)
	}
	bin, buildTook, err := buildCollabd()
	if err != nil {
		return nil, err
	}
	s := &session{w: w, launch: func(args ...string) (target, error) { return spawn(bin, args...) }}
	if w.tiered {
		// Set-up empties the directory; collabd creates it.
		if s.dir, err = filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("store-%d", os.Getpid()))); err != nil {
			return nil, err
		}
		defer os.RemoveAll(s.dir)
	}
	res, err := s.execute(seed, sizing{kaggleScale: kaggleScale, kagglePass: len(kaggle.AllWorkloads()), steps: w.stepsFor(seconds)}, traced, untracedWall)
	if err != nil {
		return nil, err
	}
	res.Seconds = seconds
	if traced {
		res.values["bench.build_s"] = secs(buildTook)
	}
	return res, nil
}

// execute sets the session's workload up, measures it, and on a traced run
// derives the per-layer metrics; it stops every server it started.
func (s *session) execute(seed int64, sz sizing, traced bool, untracedWall float64) (*result, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	m := newMeter(rec)
	http.DefaultTransport = m
	s.r = &runner{meter: m, rec: rec}
	defer func() {
		if s.srv != nil {
			_, _ = s.srv.stop()
		}
	}()

	ref := newReference()
	s.setupHost, s.phaseHost = &hostClock{ref: ref}, &hostClock{ref: ref}

	cpuBefore := selfCPU()
	// A set-up that takes under a second is too short to time once: it is
	// done three times over, each from nothing, and the median reported.
	var setups []float64
	for {
		start, bursts := time.Now(), s.setupHost.took
		if err := s.setUp(seed, sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (time.Since(start) - (s.setupHost.took - bursts)).Seconds())
		if len(setups) == 3 || setups[0] > 1 {
			break
		}
		if _, err := s.srv.stop(); err != nil {
			return nil, err
		}
		s.srv = nil
	}
	setup := median(setups) / s.setupHost.factor()

	ph, err := s.measure()
	if err != nil {
		return nil, err
	}
	failed, firstErr := ph.failed()
	res := &result{
		Workload: s.w.name, Seed: seed, Traced: traced,
		Attempted: len(ph.steps), Failed: failed,
		Host:       hostFacts(),
		CollabdArg: append([]string{"collabd"}, s.serverArgs()...),
		EndToEnd:   endToEndMetrics(ph, s.phaseHost.factor(), setup),
		defs:       endToEnd,

		HostFactor: s.phaseHost.factor(), SetupHostFactor: s.setupHost.factor(),
		RawWall: ph.wall.Seconds(),
	}
	res.values = res.EndToEnd
	if firstErr != nil {
		res.FirstError = firstErr.Error()
	}
	if !traced {
		return res, nil
	}

	in := traceInputs{
		spans: rec.snapshot(), runs: s.r.runs,
		cpuSelf: selfCPU() - cpuBefore, untraced: absent,
		hostFactor: s.phaseHost.factor(),
	}
	if untracedWall > 0 {
		in.untraced = untracedWall
	}
	if s.w.tiered {
		in.dirMB = dirMB(s.dir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res.SpanFile = filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace.json", s.w.name, seed))
	if err := writeChromeTrace(res.SpanFile, in.spans); err != nil {
		return nil, err
	}
	// The reruns below go through the same meter; the spans and byte
	// counts of the measured phase are already taken.
	m.rec = nil
	n := len(s.p.steps)
	if s.w.tiered {
		ps, err := s.restartCycle(in.spans)
		if err != nil {
			return nil, fmt.Errorf("persist cycle: %w", err)
		}
		in.persist = &ps
	}
	in.inprocK, in.naiveK = prefix(n, 4), prefix(n, 12)
	if in.inprocWall, err = s.inProcessWall(in.inprocK, false); err != nil {
		return nil, err
	}
	if in.naiveWall, err = s.inProcessWall(in.naiveK, true); err != nil {
		return nil, err
	}
	if s.w.bareArgs != nil {
		in.bareK = prefix(n, 4)
		if in.bareWall, err = s.bareWall(in.bareK); err != nil {
			return nil, err
		}
	}
	res.values = layerMetrics(ph, in)
	res.defs = perLayer
	res.Guards = evalGuards(map[string]map[string]float64{s.w.name: res.values})
	return res, nil
}

// prefix is the length of the step-list prefix a rerun covers.
func prefix(n, div int) int {
	if k := n / div; k > 1 {
		return k
	}
	return 1
}

// host records where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
}

func hostFacts() host {
	return host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
	}
}

// reported is one metric as the driver reads it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	Host       host               `json:"host"`
	CollabdArg []string           `json:"collabd_argv"`
	SpanFile   string             `json:"span_file,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	EndToEnd   map[string]float64 `json:"end_to_end"` // measured with spans on when Traced
	Guards     []guardResult      `json:"guards,omitempty"`
	// How slowly the host ran the reference work during the phase and
	// during set-up, and the phase's time before it was divided by that.
	HostFactor      float64 `json:"host_factor"`
	SetupHostFactor float64 `json:"setup_host_factor"`
	RawWall         float64 `json:"raw_wall_s"`

	values map[string]float64
	defs   []metricDef
}

// shown maps an absent value to the -1 the driver line carries.
func shown(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// driverLine is the object printed as the last line of standard output.
func (r *result) driverLine() map[string]any {
	metrics := make(map[string]reported, len(r.defs))
	for _, d := range r.defs {
		metrics[d.name] = reported{Value: shown(r.values[d.name]), Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func (r *result) writeFile(path string) error {
	r.Metrics = make(map[string]float64, len(r.defs))
	for _, d := range r.defs {
		r.Metrics[d.name] = shown(r.values[d.name])
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit, then the guards.
func (r *result) print(w *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%d %s: %d steps, %d failed (nproc=%d GOMAXPROCS=%d %s, %s)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed,
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.CPU)
	fmt.Fprintf(w, "collabd argv: %v\n", r.CollabdArg)
	fmt.Fprintf(w, "host ran the reference work %.3fx nominal during the phase (%.3fx during set-up); the phase took %.3f s by the clock\n",
		r.HostFactor, r.SetupHostFactor, r.RawWall)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstError)
	}
	if r.Traced {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-44s %14.4f %s (traced)\n", d.name, r.EndToEnd[d.name], d.unit)
		}
	}
	for _, d := range r.defs {
		if v := r.values[d.name]; math.IsNaN(v) {
			fmt.Fprintf(w, "  %-44s %14s %s\n", d.name, "n/a", d.unit)
		} else {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if !r.Traced {
		fmt.Fprintf(w, "  step_p50_ms is the median of %d step latencies\n", r.Attempted)
	}
	for _, g := range r.Guards {
		fmt.Fprintf(w, "  guard %-16s %-5s %s\n", g.Workload, g.Verdict, g.Detail)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s\n", r.SpanFile)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
