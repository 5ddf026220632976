// Package loadgen is the open-loop load harness for the serving path: it
// drives a collabd-compatible server with a deterministic, seeded mix of
// optimize/update/artifact/stats requests at a fixed target rate and
// reports per-endpoint latency quantiles.
//
// Open-loop means the request schedule is fixed up front — request i fires
// at start + i/RPS regardless of whether earlier requests have completed —
// so a server that falls behind accumulates visible queueing delay instead
// of silently throttling the generator (the coordinated-omission trap of
// closed-loop harnesses). The achieved-vs-target RPS gap and the latency
// tail together are the scaling scoreboard.
package loadgen

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/remote"
	"repro/internal/store"
)

// Mixes is the vocabulary of built-in workload mixes: weighted draws over
// the serving endpoints, heavy on the named one.
var Mixes = map[string]map[string]int{
	"optimize-heavy": {"optimize": 8, "update": 1, "stats": 1},
	"update-heavy":   {"update": 8, "optimize": 1, "stats": 1},
	"mixed":          {"optimize": 4, "update": 3, "artifact": 2, "stats": 1},
	"artifact-fetch": {"artifact": 8, "optimize": 1, "stats": 1},
}

// MixNames lists the built-in mixes in stable order for usage strings.
func MixNames() []string {
	names := make([]string, 0, len(Mixes))
	for name := range Mixes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Config parameterizes one load run.
type Config struct {
	// ServerURL targets an already-running server. Empty starts an
	// in-process one (StartInProcess) for self-contained benchmarking.
	ServerURL string
	// Mix names one of Mixes.
	Mix string
	// TargetRPS is the open-loop request rate; the schedule is fixed at
	// start and does not slow down when the server lags.
	TargetRPS float64
	// Warmup requests are sent on schedule but excluded from the report.
	Warmup time.Duration
	// Duration is the measured phase.
	Duration time.Duration
	// Seed makes the op sequence deterministic: same seed, same mix, same
	// ordered endpoint choices.
	Seed int64
	// Rows sizes the seeded pipeline's dataset (default 200).
	Rows int
}

// EndpointReport is the per-endpoint section of the scoreboard.
type EndpointReport struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// SaturationDelta is the server-side /v1/stats difference across the load
// run: how many optimizer round-trips the run drove, how much time callers
// spent queued on (and holding) the server and store locks, and what the
// worker pool did. Utilization is an end-of-run snapshot, not a delta.
type SaturationDelta struct {
	OptimizeServed     int64   `json:"optimize_served"`
	UpdateServed       int64   `json:"update_served"`
	LockWaitSec        float64 `json:"lock_wait_sec"`
	LockHoldSec        float64 `json:"lock_hold_sec"`
	StoreLockWaitSec   float64 `json:"store_lock_wait_sec"`
	PoolCalls          int64   `json:"pool_calls"`
	PoolHelpers        int64   `json:"pool_helpers"`
	PoolRejectedInline int64   `json:"pool_rejected_inline"`
	PoolQueueWaitSec   float64 `json:"pool_queue_wait_sec"`
	PoolUtilization    float64 `json:"pool_utilization"`
}

// Report is the final scoreboard, serialized as BENCH_serve.json and
// compared across commits by cmd/benchcheck.
type Report struct {
	Mix         string           `json:"mix"`
	TargetRPS   float64          `json:"target_rps"`
	AchievedRPS float64          `json:"achieved_rps"`
	WarmupSec   float64          `json:"warmup_sec"`
	DurationSec float64          `json:"duration_sec"`
	Seed        int64            `json:"seed"`
	Total       int64            `json:"total"`
	Errors      int64            `json:"errors"`
	Endpoints   []EndpointReport `json:"endpoints"`
	// Saturation embeds the before/after /v1/stats delta. Omitted (nil)
	// when either stats fetch failed, so older baseline reports and new
	// ones stay comparable in cmd/benchcheck.
	Saturation *SaturationDelta `json:"saturation,omitempty"`
}

// WriteJSON renders the report as indented, key-stable JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// endpointStats accumulates latencies for one endpoint during the measured
// phase. The sketch keeps quantiles bounded-memory and deterministic.
type endpointStats struct {
	mu     sync.Mutex
	sketch *obs.Sketch
	count  int64
	errors int64
	sumMs  float64
	maxMs  float64
}

func (s *endpointStats) observe(elapsed time.Duration, failed bool) {
	ms := float64(elapsed) / float64(time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	if failed {
		s.errors++
	}
	s.sumMs += ms
	if ms > s.maxMs {
		s.maxMs = ms
	}
	s.sketch.Observe(ms)
}

// StartInProcess brings up a complete in-memory server (core.Server behind
// the remote HTTP façade) on a loopback listener. The returned stop
// function shuts it down. Used when Config.ServerURL is empty, and by the
// smoke test.
func StartInProcess() (string, func(), error) {
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithBudget(1<<30), core.WithWarmstart(true))
	h := remote.NewHandler(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// seedFrame builds the deterministic dataset behind the seeded pipeline.
func seedFrame(rows int, seed int64) *data.Frame {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, rows)
	b := make([]float64, rows)
	y := make([]float64, rows)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		if a[i]+b[i] > 0 {
			y[i] = 1
		}
	}
	return data.MustNewFrame(
		data.NewFloatColumn("a", a),
		data.NewFloatColumn("b", b),
		data.NewFloatColumn("y", y),
	)
}

// seedPipeline builds the workload whose repeated submission the harness
// simulates: clean → derive → train → evaluate, the canonical
// collaborative-reuse shape.
func seedPipeline(frame *data.Frame) *graph.DAG {
	w := graph.NewDAG()
	src := w.AddSource("loadgen.csv", &graph.DatasetArtifact{Frame: frame})
	clean := w.Apply(src, ops.FillNA{})
	feat := w.Apply(clean, ops.Derive{Out: "ab", Inputs: []string{"a", "b"}, Fn: ops.Sum})
	model := w.Apply(feat, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 30}, Seed: 1},
		Label: "y",
	})
	w.Combine(ops.Evaluate{Label: "y", Metric: ops.AUC}, model, feat)
	return w
}

// payloads holds the pre-encoded request bodies and artifact targets so
// the hot loop does no gob encoding.
type payloads struct {
	optimizeBody []byte
	updateBody   []byte
	artifactIDs  []string
}

// seed populates the server (one real client run so the EG holds vertices
// and the store holds artifacts) and pre-encodes the request bodies the
// load loop replays.
func seed(serverURL string, rows int, seedVal int64) (*payloads, error) {
	rc := remote.NewClient(serverURL, cost.Remote())
	client := core.NewClient(rc)
	frame := seedFrame(rows, seedVal)
	executed := seedPipeline(frame)
	if _, err := client.Run(executed); err != nil {
		return nil, fmt.Errorf("seed run: %w", err)
	}
	if err := rc.Err(); err != nil {
		return nil, fmt.Errorf("seed transport: %w", err)
	}

	p := &payloads{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&remote.OptimizeRequest{
		Nodes: remote.ToWire(seedPipeline(frame)),
	}); err != nil {
		return nil, err
	}
	p.optimizeBody = append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&remote.UpdateRequest{
		Nodes: remote.ToWire(executed),
	}); err != nil {
		return nil, err
	}
	p.updateBody = append([]byte(nil), buf.Bytes()...)

	// A second optimize of the identical pipeline reveals which artifact
	// IDs the server can serve — the artifact-fetch op's targets. It is
	// asked as another collaborator: rc's session store holds the whole
	// pipeline by now, and its plan would load nothing.
	opt, err := remote.NewClient(serverURL, cost.Remote()).OptimizeE(seedPipeline(frame), nil)
	if err != nil {
		return nil, fmt.Errorf("seed optimize: %w", err)
	}
	for id := range opt.Plan.Reuse {
		p.artifactIDs = append(p.artifactIDs, id)
	}
	sort.Strings(p.artifactIDs)
	return p, nil
}

// opSequence expands a mix into a deterministic op stream: the weighted op
// list is fixed, and draws come from a seeded PRNG. Ops the server cannot
// serve (artifact fetch with nothing materialized) degrade to stats.
func opSequence(mix map[string]int, n int, seedVal int64, haveArtifacts bool) []string {
	weighted := make([]string, 0, 16)
	names := make([]string, 0, len(mix))
	for op := range mix {
		names = append(names, op)
	}
	sort.Strings(names) // map order must not leak into the sequence
	for _, op := range names {
		for i := 0; i < mix[op]; i++ {
			weighted = append(weighted, op)
		}
	}
	rng := rand.New(rand.NewSource(seedVal))
	out := make([]string, n)
	for i := range out {
		op := weighted[rng.Intn(len(weighted))]
		if op == "artifact" && !haveArtifacts {
			op = "stats"
		}
		out[i] = op
	}
	return out
}

// Run executes the configured load against the server and returns the
// scoreboard. When ServerURL is empty an in-process server is started for
// the duration of the run.
func Run(cfg Config) (*Report, error) {
	mix, ok := Mixes[cfg.Mix]
	if !ok {
		return nil, fmt.Errorf("unknown mix %q (have %v)", cfg.Mix, MixNames())
	}
	if cfg.TargetRPS <= 0 {
		return nil, fmt.Errorf("target RPS must be positive, got %g", cfg.TargetRPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 200
	}
	serverURL := cfg.ServerURL
	if serverURL == "" {
		url, stop, err := StartInProcess()
		if err != nil {
			return nil, err
		}
		defer stop()
		serverURL = url
	}

	p, err := seed(serverURL, cfg.Rows, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Snapshot server-side saturation counters around the run; the delta
	// rides on the report. Best-effort: a failed fetch just drops the
	// section rather than failing the load run.
	statsClient := remote.NewClient(serverURL, cost.Remote())
	before, beforeErr := statsClient.StatsE()

	interval := time.Duration(float64(time.Second) / cfg.TargetRPS)
	warmupN := int(cfg.Warmup / interval)
	measureN := int(cfg.Duration / interval)
	if measureN < 1 {
		measureN = 1
	}
	total := warmupN + measureN
	seq := opSequence(mix, total, cfg.Seed, len(p.artifactIDs) > 0)

	httpc := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	stats := map[string]*endpointStats{}
	for _, op := range []string{"optimize", "update", "artifact", "stats"} {
		stats[op] = &endpointStats{sketch: obs.NewSketch(4096)}
	}

	var wg sync.WaitGroup
	var measuredDone sync.WaitGroup
	start := time.Now()
	measureStart := start.Add(time.Duration(warmupN) * interval)
	for i := 0; i < total; i++ {
		// Open loop: fire at the scheduled instant no matter how the
		// server is doing.
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		measured := i >= warmupN
		op := seq[i]
		wg.Add(1)
		if measured {
			measuredDone.Add(1)
		}
		go func() {
			defer wg.Done()
			t0 := time.Now()
			failed := doOp(httpc, serverURL, op, p)
			if measured {
				stats[op].observe(time.Since(t0), failed)
				measuredDone.Done()
			}
		}()
	}
	measuredDone.Wait()
	measureElapsed := time.Since(measureStart)
	wg.Wait()

	var saturation *SaturationDelta
	if after, afterErr := statsClient.StatsE(); beforeErr == nil && afterErr == nil {
		saturation = &SaturationDelta{
			OptimizeServed:     after.OptimizeCount - before.OptimizeCount,
			UpdateServed:       after.UpdateCount - before.UpdateCount,
			LockWaitSec:        after.LockWaitSec - before.LockWaitSec,
			LockHoldSec:        after.LockHoldSec - before.LockHoldSec,
			StoreLockWaitSec:   after.StoreLockWaitSec - before.StoreLockWaitSec,
			PoolCalls:          after.Pool.Calls - before.Pool.Calls,
			PoolHelpers:        after.Pool.Helpers - before.Pool.Helpers,
			PoolRejectedInline: after.Pool.RejectedInline - before.Pool.RejectedInline,
			PoolQueueWaitSec:   after.Pool.QueueWaitSec - before.Pool.QueueWaitSec,
			PoolUtilization:    after.Pool.Utilization,
		}
	}

	report := &Report{
		Saturation:  saturation,
		Mix:         cfg.Mix,
		TargetRPS:   cfg.TargetRPS,
		WarmupSec:   cfg.Warmup.Seconds(),
		DurationSec: cfg.Duration.Seconds(),
		Seed:        cfg.Seed,
	}
	for _, op := range []string{"optimize", "update", "artifact", "stats"} {
		s := stats[op]
		if s.count == 0 {
			continue
		}
		report.Total += s.count
		report.Errors += s.errors
		report.Endpoints = append(report.Endpoints, EndpointReport{
			Endpoint: op,
			Count:    s.count,
			Errors:   s.errors,
			P50Ms:    s.sketch.Quantile(0.5),
			P95Ms:    s.sketch.Quantile(0.95),
			P99Ms:    s.sketch.Quantile(0.99),
			MaxMs:    s.maxMs,
			MeanMs:   s.sumMs / float64(s.count),
		})
	}
	if measureElapsed > 0 {
		report.AchievedRPS = float64(report.Total) / measureElapsed.Seconds()
	}
	return report, nil
}

// doOp fires one request and reports whether it failed. Bodies are
// replayed from the pre-encoded payloads; responses are drained and
// discarded (the harness measures the server, not decoding).
func doOp(httpc *http.Client, serverURL, op string, p *payloads) (failed bool) {
	var resp *http.Response
	var err error
	switch op {
	case "optimize":
		resp, err = httpc.Post(serverURL+"/v1/optimize",
			"application/octet-stream", bytes.NewReader(p.optimizeBody))
	case "update":
		resp, err = httpc.Post(serverURL+"/v1/update",
			"application/octet-stream", bytes.NewReader(p.updateBody))
	case "artifact":
		id := p.artifactIDs[0]
		resp, err = httpc.Get(serverURL + "/v1/artifact?id=" + url.QueryEscape(id))
	case "stats":
		resp, err = httpc.Get(serverURL + "/v1/stats")
	default:
		return true
	}
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode >= 400
}
