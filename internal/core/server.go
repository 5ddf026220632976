// Package core wires the paper's architecture (Figure 2) together: the
// client parses and prunes a workload DAG, the server optimizes it against
// the Experiment Graph with a reuse planner, the client executes the
// optimized DAG, and the server's updater merges the executed DAG into EG
// and runs the materialization algorithm.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/calib"
	"repro/internal/data"
	"repro/internal/eg"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/store"
)

// Server is the collaborative-environment server: it owns the Experiment
// Graph, the artifact store, the materialization strategy, and the reuse
// planner. It is safe for concurrent use by multiple clients.
type Server struct {
	mu sync.Mutex

	EG    *eg.Graph
	Store *store.Manager

	strategy materialize.Strategy
	planner  reuse.Planner
	budget   int64
	// warmstart globally enables donor search; individual training ops
	// must still opt in (§6.2).
	warmstart bool
	// prune bounds EG meta-data growth; zero-value disables pruning.
	prune eg.PrunePolicy
	// asked holds the vertices an update has asked its caller to upload
	// and whose content has not arrived yet (see askOnceLocked). Guarded
	// by mu.
	asked map[string]bool
	// scratch holds the materialization run's buffers between updates, and
	// settled is the graph whose store content the updater has taken in (see
	// settleLocked). Guarded by mu.
	scratch materialize.Scratch
	settled *eg.Graph
	// served counts the optimize and update calls served, and last is what
	// the newest update left for its explain record, kept whether explain is
	// on or not. Guarded by mu.
	served int64
	last   lastUpdate

	// metrics is the server's observability registry (always on — updates
	// are atomic counters, far below planning cost).
	metrics *serverMetrics
	// explain reads the decision records; nil when explain is off
	// (WithExplain).
	explain *Explainer

	// calib is the always-on calibration collector: updates feed it the
	// measured fetch/compute durations next to the predictions the planner
	// used.
	calib *calib.Collector

	// flight and clients are the two folds over finished request records
	// (ObserveRequest): the ring of recent requests served at /v1/requests
	// and the per-client attribution table (requests, wall time, bytes,
	// lock wait, plan time per caller) served at /v1/clients. Both default
	// on with a small cap; WithFlightRecorder(nil) / WithClientTable(nil)
	// disable them (nil is a zero-cost no-op).
	flight  *obs.Ring[obs.Request]
	clients *obs.ClientTable
	// ledger is the artifact ledger: the store reports where each artifact
	// lives, the updater feeds it per-reuse realized savings, and it is
	// served at /v1/artifacts. Default-on with a small cap;
	// WithArtifactLedger(nil) disables it (the store's detached fast path
	// is one atomic pointer load).
	ledger *obs.ArtifactLedger
	// started anchors collab_uptime_seconds; version/goVersion back the
	// collab_build_info metric and /v1/stats.
	started   obs.Stopwatch
	version   string
	goVersion string
}

// serverMetrics bundles the server's instruments; see DESIGN.md
// "Observability" for the metric inventory.
type serverMetrics struct {
	reg *obs.Registry

	optimizeTotal   *obs.Counter
	optimizeSec     *obs.Histogram
	updateTotal     *obs.Counter
	matSec          *obs.Histogram
	matRuns         *obs.Counter
	matSelected     *obs.Gauge
	matConsidered   *obs.Counter
	matVetoed       *obs.Counter
	matEvicted      *obs.Counter
	planLoads       *obs.Counter
	planComputes    *obs.Counter
	planCandidates  *obs.Counter
	planPruned      *obs.Counter
	planPrunedCost  *obs.Counter
	planPrunedNoMat *obs.Counter
	warmstartsFound *obs.Counter

	// lockWait/lockHold account the server mutex per section: how long a
	// request queued before its section ran, and how long it then held the
	// lock. Keyed by the fixed lockSections vocabulary.
	lockWait map[string]*obs.Histogram
	lockHold map[string]*obs.Histogram
	// storeLockWait is the store manager's write-lock wait histogram,
	// retained so Stats can report its scalar sum.
	storeLockWait *obs.Histogram
}

// lockSections is the fixed vocabulary of server-mutex sections; each gets
// a wait and a hold histogram, so label cardinality is bounded by
// construction.
var lockSections = []string{"optimize", "update", "materialize"}

// serverLockBuckets spans uncontended sub-microsecond acquisitions through
// pathological multi-second queueing.
var serverLockBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1,
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:           reg,
		optimizeTotal: reg.Counter("collab_optimize_requests_total", "optimize round-trips served"),
		optimizeSec: reg.Histogram("collab_optimize_seconds",
			"reuse-planning latency per optimize request", nil),
		updateTotal: reg.Counter("collab_update_requests_total", "updater invocations"),
		matSec: reg.Histogram("collab_materialize_seconds",
			"materialization-algorithm latency per update", nil),
		matRuns:     reg.Counter("collab_materialize_runs_total", "materialization algorithm runs"),
		matSelected: reg.Gauge("collab_materialize_selected", "size of the last materialization selection"),
		matConsidered: reg.Counter("collab_materialize_considered_total",
			"eligible candidates scored by the materializer"),
		matVetoed: reg.Counter("collab_materialize_vetoed_total",
			"candidates rejected by the load-cost veto (Cl >= Cr)"),
		matEvicted: reg.Counter("collab_materialize_evictions_total", "artifacts evicted by reselection"),
		planLoads: reg.Counter("collab_plan_reuse_vertices_total",
			"vertices the reuse planner decided to load (post backward prune)"),
		planComputes: reg.Counter("collab_plan_compute_vertices_total",
			"vertices the reuse planner left to compute"),
		planCandidates: reg.Counter("collab_plan_reuse_candidates_total",
			"forward-pass load candidates before backward pruning"),
		planPruned: reg.Counter("collab_plan_pruned_vertices_total",
			"load candidates dropped by the backward pass (off the execution path)"),
		planPrunedCost: reg.Counter("collab_plan_pruned_by_cost_total",
			"computable vertices with a loadable artifact rejected because Cl >= recreation cost"),
		planPrunedNoMat: reg.Counter("collab_plan_pruned_not_materialized_total",
			"computable vertices with no loadable artifact in EG (Cl infinite)"),
		warmstartsFound: reg.Counter("collab_warmstart_candidates_total",
			"warmstart donors proposed to clients"),
	}
	m.lockWait = make(map[string]*obs.Histogram, len(lockSections))
	m.lockHold = make(map[string]*obs.Histogram, len(lockSections))
	for _, sec := range lockSections {
		m.lockWait[sec] = reg.Histogram(obs.Labeled("collab_server_lock_wait_seconds", "section", sec),
			"time requests queued on the server mutex before their section ran", serverLockBuckets)
		m.lockHold[sec] = reg.Histogram(obs.Labeled("collab_server_lock_hold_seconds", "section", sec),
			"time requests held the server mutex inside their section", serverLockBuckets)
	}
	return m
}

// lockSection acquires the server mutex on behalf of the named section,
// accounting the queue wait on the section's histogram and on the request
// record, so the flight log shows which request waited and for how long. The
// returned release observes the hold time and unlocks; callers defer it
// exactly where they previously deferred s.mu.Unlock().
func (s *Server) lockSection(section string, req *obs.Request) (release func()) {
	sw := obs.StartTimer()
	s.mu.Lock()
	wait := sw.Elapsed()
	req.LockWaitNanos += wait.Nanoseconds()
	m := s.metrics
	m.lockWait[section].Observe(wait.Seconds())
	hold := obs.StartTimer()
	return func() {
		m.lockHold[section].Observe(hold.Elapsed().Seconds())
		s.mu.Unlock()
	}
}

// untagged stands in for the record of a caller that passed none
// (benchmarks, experiments, tests): the server's facts land on a record
// nobody reads.
func untagged(req *obs.Request) *obs.Request {
	if req == nil {
		return &obs.Request{}
	}
	return req
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithStrategy sets the materialization strategy (default storage-aware).
func WithStrategy(s materialize.Strategy) ServerOption {
	return func(srv *Server) { srv.strategy = s }
}

// WithPlanner sets the reuse planner (default linear-time).
func WithPlanner(p reuse.Planner) ServerOption {
	return func(srv *Server) { srv.planner = p }
}

// WithBudget sets the materialization budget in bytes (default 1 GiB).
func WithBudget(b int64) ServerOption {
	return func(srv *Server) { srv.budget = b }
}

// WithWarmstart enables warmstart donor search.
func WithWarmstart(enabled bool) ServerOption {
	return func(srv *Server) { srv.warmstart = enabled }
}

// WithPrunePolicy bounds Experiment Graph growth: after each update, stale
// unmaterialized vertices matching the policy are dropped.
func WithPrunePolicy(p eg.PrunePolicy) ServerOption {
	return func(srv *Server) { srv.prune = p }
}

// WithExplain switches decision introspection on or off (the default): the
// newest optimize call's per-vertex reuse decisions and the newest update's
// per-candidate materialization decisions, served by the remote handler's
// /v1/explain endpoint and the `collab explain` CLI (Explain). On, an
// optimize call also builds its record; an update does the same work either
// way, and its record is rendered when it is read.
func WithExplain(on bool) ServerOption {
	return func(srv *Server) {
		srv.explain = nil
		if on {
			srv.explain = &Explainer{s: srv}
		}
	}
}

// WithFlightRecorder replaces the default request flight ring (the last
// obs.DefaultFlightCap finished requests). Pass a larger ring to keep more
// history, or nil to disable recording entirely.
func WithFlightRecorder(f *obs.Ring[obs.Request]) ServerOption {
	return func(srv *Server) { srv.flight = f }
}

// WithClientTable replaces the default per-client attribution table (a
// DefaultClientCap-entry table). Pass a larger table to track more
// distinct clients, or nil to disable attribution entirely.
func WithClientTable(t *obs.ClientTable) ServerOption {
	return func(srv *Server) { srv.clients = t }
}

// WithArtifactLedger replaces the default artifact ledger (a
// DefaultLedgerCap-entry table). Pass a larger ledger to track more
// distinct artifacts, or nil to disable artifact accounting entirely.
func WithArtifactLedger(l *obs.ArtifactLedger) ServerOption {
	return func(srv *Server) { srv.ledger = l }
}

// NewServer builds a server around the given store.
func NewServer(st *store.Manager, opts ...ServerOption) *Server {
	srv := &Server{
		EG:      eg.New(),
		Store:   st,
		budget:  1 << 30,
		calib:   calib.NewCollector(),
		flight:  obs.NewRing[obs.Request](obs.DefaultFlightCap),
		clients: obs.NewClientTable(0),
		ledger:  obs.NewArtifactLedger(0),
		asked:   make(map[string]bool),
		started: obs.StartTimer(),
	}
	srv.version, srv.goVersion = obs.BuildInfo()
	cfg := materialize.Config{Alpha: 0.5, Profile: st.Profile()}
	srv.strategy = materialize.NewStorageAware(cfg)
	srv.planner = reuse.Linear{}
	for _, o := range opts {
		o(srv)
	}
	srv.initMetrics()
	return srv
}

// initMetrics wires the registry: server counters, scrape-time gauges over
// the EG and the store (both internally locked) and store operation
// counters.
func (s *Server) initMetrics() {
	m := newServerMetrics()
	s.metrics = m
	reg := m.reg
	reg.GaugeFunc("collab_eg_vertices", "Experiment Graph vertex count",
		func() float64 { return float64(s.EG.Len()) })
	reg.GaugeFunc("collab_eg_materialized", "EG vertices with stored content",
		func() float64 { return float64(s.Materialized()) })
	reg.GaugeFunc("collab_store_artifacts", "artifacts in the store",
		func() float64 { return float64(s.Store.Len()) })
	reg.GaugeFunc("collab_store_physical_bytes", "deduplicated bytes stored",
		func() float64 { return float64(s.Store.PhysicalBytes()) })
	reg.GaugeFunc("collab_store_logical_bytes", "bytes stored before deduplication",
		func() float64 { return float64(s.Store.LogicalBytes()) })
	reg.GaugeFunc("collab_store_memory_bytes", "deduplicated bytes resident in the memory tier",
		func() float64 { return float64(s.Store.MemoryBytes()) })
	reg.GaugeFunc("collab_store_disk_bytes", "deduplicated bytes resident in the disk tier",
		func() float64 { return float64(s.Store.DiskBytes()) })
	m.storeLockWait = reg.Histogram("collab_store_lock_wait_seconds",
		"time callers queued on the store manager's write lock", serverLockBuckets)
	s.Store.Instrument(store.Metrics{
		GetHits:   reg.Counter("collab_store_get_hits_total", "store lookups that found content"),
		GetMisses: reg.Counter("collab_store_get_misses_total", "store lookups that missed"),
		DiskHits:  reg.Counter("collab_store_disk_hits_total", "store lookups served by the disk tier"),
		Puts:      reg.Counter("collab_store_puts_total", "artifacts admitted to the store"),
		Evictions: reg.Counter("collab_store_evictions_total", "artifacts evicted from the store"),
		Demotions: reg.Counter("collab_store_demotions_total",
			"artifacts demoted memory → disk by budget pressure"),
		Promotions: reg.Counter("collab_store_promotions_total",
			"artifacts promoted disk → memory on access"),
		ChecksumFailures: reg.Counter("collab_store_checksum_failures_total",
			"disk reads rejected by checksum verification (files quarantined)"),
		BytesFetched: reg.Counter("collab_store_fetched_bytes_total", "logical bytes served by store lookups"),
		LockWait:     m.storeLockWait,
	})
	// Build identity and uptime: an info-gauge (constant 1, facts in the
	// labels, the Prometheus convention) plus a scrape-time uptime gauge.
	reg.Gauge(obs.Labeled("collab_build_info", "version", s.version, "go_version", s.goVersion),
		"build identity of this server (constant 1; facts travel in the labels)").Set(1)
	reg.GaugeFunc("collab_uptime_seconds", "seconds since this server was constructed",
		func() float64 { return s.started.Elapsed().Seconds() })
	// Flight-ring health: occupancy and capacity.
	if s.flight != nil {
		reg.GaugeFunc("collab_flight_requests", "finished requests retained by the flight ring",
			func() float64 { return float64(s.flight.Len()) })
		reg.GaugeFunc("collab_flight_capacity", "flight ring capacity",
			func() float64 { return float64(s.flight.Cap()) })
	}
	// Artifact ledger: attach to the store (deriving rent rates from the
	// tier profiles and reporting what it already holds) and expose the
	// aggregate economics.
	s.Store.AttachLedger(s.ledger)
	if s.ledger != nil {
		reg.GaugeFunc("collab_artifact_tracked", "distinct artifacts in the artifact ledger",
			func() float64 { return float64(s.ledger.Len()) })
		reg.GaugeFunc("collab_artifact_dropped_total",
			"ledger observations refused because the table was full",
			func() float64 { return float64(s.ledger.Dropped()) })
		reg.GaugeFunc("collab_artifact_saved_seconds",
			"realized load-time savings across tracked artifacts (Cr avoided minus measured fetch)",
			func() float64 { _, saved, _, _ := s.ledger.Totals(); return saved })
		reg.GaugeFunc("collab_artifact_rent_seconds",
			"storage rent across tracked artifacts (byte-seconds held, priced per tier)",
			func() float64 { _, _, rent, _ := s.ledger.Totals(); return rent })
		reg.GaugeFunc("collab_artifact_net_benefit_seconds",
			"net benefit across tracked artifacts (savings minus rent)",
			func() float64 { _, _, _, net := s.ledger.Totals(); return net })
	}
	// Per-client attribution health: distinct clients currently tracked
	// (the cap plus one overflow bucket is the ceiling).
	if s.clients != nil {
		reg.GaugeFunc("collab_clients_tracked", "distinct clients in the attribution table",
			func() float64 { return float64(s.clients.Len()) })
	}
}

// Metrics returns the server's observability registry, rendered by the
// remote handler's /metrics endpoint.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Explain returns the reader of the server's decision records, or nil when
// explain is off.
func (s *Server) Explain() *Explainer { return s.explain }

// Explainer reads a server's decision records and holds the newest optimize
// record, which the optimize call builds (guarded by the server's mu).
type Explainer struct {
	s         *Server
	optimized *explain.Record
}

// lastUpdate is what an update leaves for its explain record: the
// materialization run, whose lists live in the server's scratch until the
// next update, the request's scorecard and ID, and the call's number (0: no
// update yet).
type lastUpdate struct {
	run       materialize.Run
	scorecard *calib.Scorecard
	requestID string
	seq       int64
}

// Last returns the newest record of the kind (explain.KindOptimize or
// explain.KindUpdate), or nil when there is none. The update record is
// rendered here, under the server mutex, from the newest update's run and
// the graph as it stands: after a prune, the rows are the eligible vertices
// the graph still holds, and the counts are the run's.
func (e *Explainer) Last(kind string) *explain.Record {
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case kind == explain.KindOptimize:
		return e.optimized
	case kind == explain.KindUpdate && s.last.seq > 0:
		rec := explain.BuildUpdate(s.EG, s.last.run, s.Store.Profile(), s.strategy.Name(), s.budget, s.last.requestID)
		rec.Seq, rec.Calibration = s.last.seq, s.last.scorecard
		return rec
	}
	return nil
}

// Calibration returns the server's calibration collector (always
// non-nil), whose Snapshot backs /v1/calibration and /v1/stats.
func (s *Server) Calibration() *calib.Collector { return s.calib }

// Flight returns the ring of finished requests backing /v1/requests, or
// nil when recording is disabled.
func (s *Server) Flight() *obs.Ring[obs.Request] { return s.flight }

// Clients returns the per-client attribution table backing /v1/clients, or
// nil when attribution is disabled.
func (s *Server) Clients() *obs.ClientTable { return s.clients }

// ArtifactLedger returns the artifact ledger backing /v1/artifacts, or nil
// when artifact accounting is disabled.
func (s *Server) ArtifactLedger() *obs.ArtifactLedger { return s.ledger }

// Ready reports whether the server can serve traffic: the artifact store
// must be attached and its cost profile loaded. The HTTP layer's /readyz
// endpoint surfaces the error text on 503 responses.
func (s *Server) Ready() error {
	if s.Store == nil {
		return errors.New("artifact store not attached")
	}
	if s.Store.Profile().BytesPerSecond <= 0 {
		return errors.New("cost profile not loaded (zero bandwidth)")
	}
	return nil
}

// ObserveRequest emits one finished request record, once, from the edge
// that created it: the flight ring retains a sequence-stamped copy and the
// per-client table folds it into its caller's row.
func (s *Server) ObserveRequest(req *obs.Request) {
	s.flight.AddSeq(func(seq int64) obs.Request {
		req.Seq = seq
		return *req
	})
	s.clients.Observe(req)
}

// Budget returns the materialization budget in bytes.
func (s *Server) Budget() int64 { return s.budget }

// Materialized counts the Experiment Graph vertices whose content the store
// holds: mat(v) summed over the graph. Every reader that asks the store about
// many vertices takes its lock before the graph's (store.Holding).
func (s *Server) Materialized() (n int) {
	s.Store.Holding(func(held func(string) bool) {
		s.EG.Visit(func(v *eg.Vertex) {
			if held(v.ID) {
				n++
			}
		})
	})
	return n
}

// FetchTiered implements ArtifactSource against the server's local store:
// the returned load cost is priced with the profile of the tier that
// actually served the artifact (a disk hit costs disk speed even though the
// access also promotes the artifact into memory).
func (s *Server) FetchTiered(id string, _ *obs.Request) (graph.Artifact, string, time.Duration) {
	a, tr := s.Store.Get(id)
	if a == nil {
		return nil, "", 0
	}
	return a, tr.String(), s.Store.TierProfile(tr).LoadCost(a.SizeBytes())
}

// Strategy returns the active materialization strategy.
func (s *Server) Strategy() materialize.Strategy { return s.strategy }

// Planner returns the active reuse planner.
func (s *Server) Planner() reuse.Planner { return s.planner }

// Optimization is the server's answer to an optimize request.
type Optimization struct {
	Plan       *reuse.Plan
	Warmstarts []reuse.WarmstartCandidate
	// Overhead is the time the reuse planner spent.
	Overhead time.Duration
}

// Optimize runs the reuse planner on a pruned workload DAG (Figure 2,
// step 3) and searches warmstart donors for eligible training operations.
// The request's ID is attached to the explain record, and the edge's
// access-log line carries it with the plan facts below, so one grep
// correlates the request end-to-end; its plan facts and lock wait are
// written into req (nil: an untagged caller).
func (s *Server) Optimize(w *graph.DAG, req *obs.Request) *Optimization {
	req = untagged(req)
	defer s.lockSection("optimize", req)()
	sw := obs.StartTimer()
	costs := reuse.GatherCosts(w, s.EG, s.Store)
	plan := s.planner.Plan(w, costs)
	overhead := sw.Elapsed()
	var ws []reuse.WarmstartCandidate
	if s.warmstart {
		ws = reuse.FindWarmstarts(w, s.EG, s.Store, plan)
	}
	m := s.metrics
	m.optimizeTotal.Inc()
	m.optimizeSec.Observe(overhead.Seconds())
	m.planLoads.Add(int64(len(plan.Reuse)))
	m.planComputes.Add(int64(plan.Stats.Computes))
	m.planCandidates.Add(int64(plan.Stats.CandidateLoads))
	m.planPruned.Add(int64(plan.Stats.PrunedOffPath))
	m.planPrunedCost.Add(int64(plan.Stats.PrunedByCost))
	m.planPrunedNoMat.Add(int64(plan.Stats.PrunedNotMaterialized))
	m.warmstartsFound.Add(int64(len(ws)))
	req.Vertices, req.Frontier = w.Len(), frontierNodes(w)
	req.Reused = len(plan.Reuse)
	req.Computes = plan.Stats.Computes
	req.Warmstarts = len(ws)
	req.PlanNanos += overhead.Nanoseconds()
	s.served++
	if s.explain != nil {
		s.explain.optimized = explain.BuildOptimize(w, costs, plan, s.planner.Name(), req.RequestID, ws)
		s.explain.optimized.Seq = s.served
	}
	return &Optimization{Plan: plan, Warmstarts: ws, Overhead: overhead}
}

// FrontierError is Update's refusal of a DAG whose frontier nodes
// (graph.Node.Frontier) name vertices the Experiment Graph does not hold —
// pruned, or lost to a restart, since the client was told they were known.
// Nothing of that update was applied.
type FrontierError struct {
	Unknown []string
}

func (e *FrontierError) Error() string {
	return fmt.Sprintf("the experiment graph does not hold %d frontier vertices of the update", len(e.Unknown))
}

// Update is the server's updater (Figure 2, step 5) and the one way a run
// enters the server, in process and over HTTP: it merges the executed DAG
// into EG, stores missing source artifacts unconditionally, re-runs the
// materialization strategy under the budget, and applies the selection to
// the store — storing newly selected artifacts whose content the DAG's nodes
// carry and evicting deselected ones. It returns the vertex IDs whose content
// it wants and does not have (the newly selected artifacts plus any missing
// raw sources), less what another caller is already sending
// (askOnceLocked): for an in-process run only what its plan left
// unexecuted, for a remote one the upload list — its decoded DAG is
// meta-data only, which eg.Merge annotates it from, and carries on its
// nodes only the content the client sent inline.
//
// A frontier node stands for a vertex of the graph and its ancestors; when
// the graph does not hold one of them, the update changes nothing and
// returns a *FrontierError naming them all.
//
// wall, when positive, is the client's measured Execute wall-clock time,
// folded into the request's calibration scorecard. The executed DAG's shape,
// the lock wait and the materialization time are written into req (nil: an
// untagged caller).
func (s *Server) Update(executed *graph.DAG, req *obs.Request, wall time.Duration) (want []string, err error) {
	req = untagged(req)
	defer s.lockSection("update", req)()

	var unknown []string
	for _, n := range executed.Nodes() {
		if n.Frontier && !s.EG.Has(n.ID) {
			unknown = append(unknown, n.ID)
		}
	}
	if unknown != nil {
		return nil, &FrontierError{Unknown: unknown}
	}
	s.served++

	// Calibration reads EG predictions, so it must run before Merge
	// refreshes them with this run's measurements.
	sc := s.observeExecutionLocked(executed, req, wall)

	s.EG.Merge(executed)

	want = s.askOnceLocked(executed, s.applySelectionLocked(executed, req, sc))
	s.pruneLocked()
	s.metrics.updateTotal.Inc()
	return want, nil
}

// pruneLocked drops the vertices the prune policy lets go of — what is stored
// stays — and the claims on their uploads (askOnceLocked), which can no
// longer arrive.
func (s *Server) pruneLocked() {
	var pruned []string
	s.Store.Holding(func(held func(string) bool) { pruned = s.EG.Prune(s.prune, held) })
	for _, id := range pruned {
		delete(s.asked, id)
	}
}

// observeExecutionLocked feeds the calibration collector from an executed
// DAG and builds the request's optimizer scorecard. It must run BEFORE
// s.EG.Merge: the EG's current ComputeTime and recreation costs are the
// predictions the planner used; after Merge they are this run's
// measurements and the comparison would be vacuous.
//
// It also writes what the update knows of the run into the request record:
// how many vertices merged and how many the client loaded from EG.
//
// Returns nil when the update carries no measurement at all — no timed
// fetch and no wall time, as from an Update outside Client.Run — so callers
// can skip scorecard plumbing.
func (s *Server) observeExecutionLocked(executed *graph.DAG, req *obs.Request, wall time.Duration) *calib.Scorecard {
	requestID := req.RequestID
	var (
		reused, execCount int
		fetchTotal        time.Duration
		computeTotal      time.Duration
		recreation        time.Duration
		measured          bool
	)
	for _, n := range executed.Nodes() {
		if n.LoadedFromEG {
			reused++
			// The recreation cost the load avoided, as the graph held it when
			// the planner priced this run; zero for a vertex it does not know.
			var cr time.Duration
			if v := s.EG.Vertex(n.ID); v != nil {
				cr = v.RecreationCost()
			}
			recreation += cr
			if n.FetchTime > 0 && n.FetchTier != "" && n.FetchTier != SessionTier {
				s.calib.ObserveLoad(n.FetchTier, n.SizeBytes, n.PredictedLoad, n.FetchTime)
				fetchTotal += n.FetchTime
				measured = true
				// The realized saving of this reuse: the recreation cost
				// the load avoided minus what the fetch actually took —
				// the ledger's per-artifact join of planner prediction and
				// measured outcome. Negative when fetching was slower than
				// recomputing would have been.
				s.ledger.ObserveReuse(n.ID, n.FetchTier, n.SizeBytes,
					(cr - n.FetchTime).Seconds())
			} else if n.FetchTier != SessionTier || s.Store.Has(n.ID) {
				// Unmeasured reuse (satisfied from the client's session
				// store, or a caller that timed nothing): counted, no
				// attributable saving.
				// What a client holds of its own work and the store never
				// kept is not an artifact the ledger tracks.
				s.ledger.ObserveReuse(n.ID, n.FetchTier, n.SizeBytes, 0)
			}
			continue
		}
		if n.IsSource() || n.Computed || n.Kind == graph.SupernodeKind || n.ComputeTime <= 0 {
			continue
		}
		execCount++
		computeTotal += n.ComputeTime
		// The EG's pre-merge compute time is the prediction the planner
		// priced Ci(v) with; absent for first-seen vertices.
		if v := s.EG.Vertex(n.ID); v != nil && v.ComputeTime > 0 {
			op := ""
			if n.Op != nil {
				op = n.Op.Name()
			}
			s.calib.ObserveCompute(op, v.ComputeTime, n.ComputeTime)
		}
	}
	req.Vertices, req.Frontier, req.Reused = executed.Len(), frontierNodes(executed), reused
	if !measured && wall <= 0 {
		return nil
	}
	sc := calib.NewScorecard(requestID, reused, execCount, recreation, fetchTotal, computeTotal)
	sc.WallSec = wall.Seconds()
	s.calib.RecordScorecard(sc)
	return &sc
}

// frontierNodes counts the frontier nodes of a DAG the server received.
func frontierNodes(w *graph.DAG) (n int) {
	for _, node := range w.Nodes() {
		if node.Frontier {
			n++
		}
	}
	return n
}

// PutArtifact stores uploaded content for a vertex. It is the upload half of
// the remote update protocol; the lock wait of the upload lands on the
// request that suffered it.
func (s *Server) PutArtifact(id string, a graph.Artifact, req *obs.Request) error {
	return s.materialize(id, req, func() error { return s.Store.Put(id, a) })
}

// PutFrameRef is PutArtifact for a dataset uploaded by reference: its
// manifest plus the columns the store does not hold (store.PutFrameRef,
// whose ErrColumnAbsent and ErrBadManifest pass through unwrapped).
func (s *Server) PutFrameRef(id string, colIDs, names []string, cols []*data.Column, req *obs.Request) error {
	return s.materialize(id, req, func() error {
		return s.Store.PutFrameRef(id, colIDs, names, cols)
	})
}

// materialize runs one store admission inside the "materialize" lock
// section. Content for a vertex the graph does not keep — unknown to it, or
// never selected (materialize.Keeps) — is taken and not stored: the updater
// would only evict it.
func (s *Server) materialize(id string, req *obs.Request, put func() error) error {
	defer s.lockSection("materialize", untagged(req))()
	if v := s.EG.Vertex(id); v == nil || !materialize.Keeps(v) {
		return nil
	}
	if err := put(); err != nil {
		return err
	}
	delete(s.asked, id)
	return nil
}

// askOnceLocked takes out of an update's upload list the vertices another
// caller has just been asked for. Two collaborators who computed the same
// vertex in concurrent runs both update before either upload lands; asking
// both would move the artifact twice, and how often is a matter of timing.
// The first caller that holds a wanted vertex (its executed DAG
// carries the content's size) is asked for it; the next one that holds it
// is passed over, once — a caller that was asked and never uploaded delays
// the artifact by one update and does not lose it — and the arrival of the
// content (materialize) ends the claim. Vertices the caller does not hold
// stay on the list, as they always did; a remote client skips them.
func (s *Server) askOnceLocked(executed *graph.DAG, want []string) []string {
	kept := want[:0]
	for _, id := range want {
		if n := executed.Node(id); n != nil && n.SizeBytes > 0 {
			if s.asked[id] {
				delete(s.asked, id)
				continue
			}
			s.asked[id] = true
		}
		kept = append(kept, id)
	}
	return kept
}

// applySelectionLocked stores sources, runs the materialization strategy,
// applies what the run changed to the store using the content the executed
// DAG carries, and returns the desired-but-missing vertex IDs. The strategy's record of the
// run is the one account of what it decided: the updater evicts its Dropped
// and stores or asks for its Admitted, the counters read its counts, and it
// is kept, with the request's scorecard, for the explain record
// (Explainer.Last). The store ends where
// reconciling every stored artifact with the whole selection left it
// (TestDeltaUpdaterMatchesFullReconcile), at the cost of what changed.
func (s *Server) applySelectionLocked(executed *graph.DAG, req *obs.Request, sc *calib.Scorecard) (want []string) {
	// Task one: every raw source artifact is stored, outside the budget.
	for _, id := range s.EG.Sources() {
		if !s.Store.Has(id) {
			want = s.storeLocked(id, executed, want)
		}
	}
	// After the sources, whose puts the full reconcile made while what it
	// evicts was still stored.
	s.settleLocked()

	// Task three: run the materialization algorithm, which asks the store
	// what it holds under one read lock, and apply it.
	matSW := obs.StartTimer()
	drops := s.Store.Drops()
	var run materialize.Run
	s.Store.Holding(func(held func(string) bool) {
		run = s.strategy.Select(s.EG, held, s.budget, &s.scratch)
	})
	matElapsed := matSW.Elapsed()
	req.MatNanos += matElapsed.Nanoseconds()
	s.metrics.matRuns.Inc()
	s.metrics.matSec.Observe(matElapsed.Seconds())
	s.metrics.matSelected.Set(float64(run.Selected))
	s.metrics.matConsidered.Add(int64(run.Eligible))
	s.metrics.matVetoed.Add(int64(run.Vetoed))
	s.last = lastUpdate{run, sc, req.RequestID, s.served}

	// Evict artifacts that fell out of the selection; store newly selected
	// artifacts whose content we have and report the rest, so a remote client
	// can upload them.
	for _, id := range run.Dropped {
		s.evictLocked(id)
	}
	for _, id := range run.Admitted {
		want = s.storeLocked(id, executed, want)
		if s.Store.Drops() != drops {
			return s.applyInOrderLocked(run, id, executed, want)
		}
	}
	return want
}

// applyInOrderLocked finishes applying a run once the store has dropped an
// artifact on its own since the run read it (a put under a memory budget with
// no disk tier under it, or a failed disk read), which may be a selected one
// the run found stored. It walks the rest of the selection, after from, in the
// order the strategy admitted it, as the full reconcile did: what is stored
// stays, what is not is stored from the executed DAG's content or wanted.
func (s *Server) applyInOrderLocked(run materialize.Run, from string, executed *graph.DAG, want []string) []string {
	selected := run.SelectedIDs()
	for _, id := range selected[slices.Index(selected, from)+1:] {
		if !s.Store.Has(id) {
			want = s.storeLocked(id, executed, want)
		}
	}
	return want
}

// storeLocked stores the vertex's content when its node in the executed DAG
// carries it, and otherwise adds the vertex to want.
func (s *Server) storeLocked(id string, executed *graph.DAG, want []string) []string {
	if n := executed.Node(id); n != nil && n.Content != nil {
		_ = s.Store.Put(id, n.Content)
		return want
	}
	return append(want, id)
}

// evictLocked evicts the vertex's content.
func (s *Server) evictLocked(id string) {
	s.Store.Evict(id)
	s.metrics.matEvicted.Inc()
}

// settleLocked evicts, the first time the updater meets a graph (a new
// server, a restored snapshot), whatever the store already holds that the
// graph does not keep (materialize.Keeps): content of vertices it does not
// know or never selects. Uploads are held to the same rule as they arrive
// (materialize).
func (s *Server) settleLocked() {
	if s.settled == s.EG {
		return
	}
	s.settled = s.EG
	for _, id := range s.Store.StoredIDs() {
		if v := s.EG.Vertex(id); v == nil || !materialize.Keeps(v) {
			s.evictLocked(id)
		}
	}
}
