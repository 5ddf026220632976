// Command collabd runs the collaborative-optimizer server: it hosts the
// Experiment Graph, the artifact store, the materialization strategy, and
// the reuse planner behind the HTTP protocol of internal/remote.
//
// Usage:
//
//	collabd -addr :7171 -budget 1073741824 -strategy sa -planner ln \
//	        [-profile memory|disk|remote|fitted.json] \
//	        [-store-dir /var/lib/collab -mem-budget 268435456] \
//	        [-explain 0] [-pprof]
//
// -budget is the one limit on what the server stores: the sources plus the
// materializer's selection. -store-dir is the one state directory, and
// without it nothing is saved. It holds the durable artifact tier: cold
// artifacts demote to checksummed, content-addressed files when the
// -mem-budget is exceeded, every -checkpoint writes the files of the
// artifacts still memory-only, and the files are verified and re-indexed on
// the next boot, so a restart serves them without recomputation. The
// Experiment Graph snapshot sits beside them. -mem-budget decides only where
// an artifact lives, so it needs -store-dir.
//
// Prometheus-style metrics are always served at /metrics (including
// per-route request histograms, counters, and inflight gauges), liveness at
// /healthz, and readiness at /readyz. Four flags each switch on one
// debugging surface served at /v1/<flag>, 0 switching it off: two that are
// on for any value above 0, -explain (the optimizer's newest optimize and
// update decisions) and -clients (per-caller attribution, keyed by
// X-Collab-Client, else remote address, summed over the requests -requests
// keeps), and two that also size theirs: -requests (finished requests, each
// with its plan, lock-wait and materialization time: the server's timeline)
// and -artifacts (artifact lifecycle and storage economics). All four are on
// by default. Requests slower than a second log a warning; -pprof mounts
// net/http/pprof under /debug/pprof/.
//
// On SIGINT or SIGTERM collabd stops accepting connections, lets requests
// in flight finish (for up to 30 s), and only then saves its state;
// periodic -checkpoint saves stop before that last one.
//
// -profile names the storage cost profile: memory, disk or remote, or else
// the path of a profile JSON file — typically one refitted from measurements
// by `collab calibration -fit TIER -o fitted.json`. The three names win over
// a file of the same name.
//
// All logging is structured (log/slog); every request-scoped line carries
// the request_id propagated from the client's X-Collab-Request header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/remote"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
)

// config is collabd's parsed command line.
type config struct {
	addr, strategy, planner, profile, storeDir, logLevel string

	budget, memBudget    int64
	alpha                float64
	warmstart, pprofOn   bool
	checkpoint           time.Duration
	pruneIdle, pruneFreq int
	// The debugging surfaces: 0 = off, else on — with that capacity, but for
	// explain and clients.
	explain, requestCap, clients, ledgerCap int
}

// parseFlags parses collabd's arguments (without the program name) and
// refuses values no server can run with. On failure it has printed the
// error and the usage.
func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("collabd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":7171", "listen address")
	fs.Int64Var(&c.budget, "budget", 1<<30, "materialization budget in bytes: the one limit on what is stored")
	fs.StringVar(&c.strategy, "strategy", "sa", "materialization strategy: sa|hm|hl|all")
	fs.StringVar(&c.planner, "planner", "ln", "reuse planner: ln|hl|allm|allc")
	fs.Float64Var(&c.alpha, "alpha", 0.5, "utility weight of model quality, in [0, 1]")
	fs.StringVar(&c.profile, "profile", "memory", "storage cost profile: memory|disk|remote, or the path of a profile JSON file (collab calibration -fit -o writes one)")
	fs.BoolVar(&c.warmstart, "warmstart", true, "enable warmstart donor search")
	fs.StringVar(&c.storeDir, "store-dir", "", "state directory: the durable artifact tier and the graph snapshot (empty: in-memory only, nothing saved)")
	fs.Int64Var(&c.memBudget, "mem-budget", 0, "memory-tier byte budget; cold artifacts demote to -store-dir, which it needs (0: unbounded)")
	fs.IntVar(&c.pruneIdle, "prune-idle", 0, "drop unmaterialized vertices idle for N workloads (0: never)")
	fs.IntVar(&c.pruneFreq, "prune-min-freq", 0, "always keep vertices seen in at least N workloads")
	fs.DurationVar(&c.checkpoint, "checkpoint", 5*time.Minute, "periodic save interval when -store-dir is set (positive)")
	fs.IntVar(&c.explain, "explain", 1, "serve the newest optimize and update decision records at GET /v1/explain (0: explain off, above 0: on)")
	fs.IntVar(&c.requestCap, "requests", obs.DefaultFlightCap, "keep the last N finished requests for GET /v1/requests (0: flight log off)")
	fs.IntVar(&c.clients, "clients", 1, "attribute the requests the flight log keeps (-requests) to their clients at GET /v1/clients (0: attribution off, above 0: on)")
	fs.IntVar(&c.ledgerCap, "artifacts", obs.DefaultLedgerCap, "track lifecycle and storage economics of up to N distinct artifacts for GET /v1/artifacts (0: ledger off)")
	fs.BoolVar(&c.pprofOn, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case c.checkpoint <= 0:
		err = fmt.Errorf("-checkpoint %v: the save interval must be positive", c.checkpoint)
	case !(c.alpha >= 0 && c.alpha <= 1):
		err = fmt.Errorf("-alpha %v: outside [0, 1]", c.alpha)
	case c.memBudget > 0 && c.storeDir == "":
		err = errors.New("-mem-budget needs -store-dir to demote to; cap what is stored with -budget")
	default:
		return c, nil
	}
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	return nil, err
}

// capped builds a debugging surface of capacity n, or nil — the surface
// switched off — for n <= 0.
func capped[T any](n int, mk func(int) *T) *T {
	if n <= 0 {
		return nil
	}
	return mk(n)
}

// newServer builds the server the configuration describes: cost profile,
// strategy and planner by name, the debugging surfaces (logged as they are
// switched on or off), and the artifact store — tiered over -store-dir when
// one is given.
func (c *config) newServer(logger *slog.Logger) (*core.Server, error) {
	prof, err := profileByName(c.profile)
	if err != nil {
		return nil, err
	}
	strat, err := strategyByName(c.strategy, materialize.Config{Alpha: c.alpha, Profile: prof})
	if err != nil {
		return nil, err
	}
	plan, err := plannerByName(c.planner)
	if err != nil {
		return nil, err
	}

	srvOpts := []core.ServerOption{
		core.WithBudget(c.budget),
		core.WithStrategy(strat),
		core.WithPlanner(plan),
		core.WithWarmstart(c.warmstart),
		core.WithPrunePolicy(eg.PrunePolicy{
			MaxIdleWorkloads: c.pruneIdle,
			MinFrequency:     c.pruneFreq,
		}),
	}
	// The debugging surfaces: the flag that switches one on (0 = off), and
	// sizes it where it is capped, doubles as its /v1/<flag> route.
	surfaces := []any{"metrics", "/metrics"}
	for _, s := range []struct {
		flag   string
		n      int
		capped bool
		opt    core.ServerOption
	}{
		{"explain", c.explain, false, core.WithExplain(c.explain > 0)},
		{"requests", c.requestCap, true, core.WithFlightRecorder(capped(c.requestCap, obs.NewRing[obs.Request]))},
		{"clients", c.clients, false, core.WithClients(c.clients > 0)},
		{"artifacts", c.ledgerCap, true, core.WithArtifactLedger(capped(c.ledgerCap, obs.NewArtifactLedger))},
	} {
		srvOpts = append(srvOpts, s.opt)
		state := fmt.Sprintf("off (-%s N to enable)", s.flag)
		switch {
		case s.n > 0 && s.capped:
			state = fmt.Sprintf("on (cap %d, GET /v1/%s)", s.n, s.flag)
		case s.n > 0:
			state = fmt.Sprintf("on (GET /v1/%s)", s.flag)
		}
		surfaces = append(surfaces, s.flag, state)
	}
	logger.Info("debug surfaces", append(surfaces, "pprof", c.pprofOn)...)
	stOpts := store.Options{MemoryBudget: c.memBudget}
	if c.storeDir != "" {
		disk, report, err := tier.Open(c.storeDir)
		if err != nil {
			return nil, fmt.Errorf("opening store dir %s: %w", c.storeDir, err)
		}
		stOpts.Disk = disk
		logger.Info("store recovered", "dir", c.storeDir,
			"frames", report.Frames, "blobs", report.Blobs, "columns", report.Columns,
			"bytes_verified", report.BytesVerified,
			"quarantined", report.Quarantined, "orphans", report.OrphanColumns)
	}
	return core.NewServer(store.NewTiered(prof, stOpts), srvOpts...), nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		// parseFlags has already printed the error and the usage.
		os.Exit(2)
	}
	level, err := logLevelByName(c.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	srv, err := c.newServer(logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// checkpoint and final save the state under -store-dir; without one
	// there is nothing to save, and shutdown only drains the requests in
	// flight.
	var checkpoint, final func()
	if dir := c.storeDir; dir != "" {
		restored, err := persist.Load(srv, dir)
		if err != nil {
			logger.Error("restoring state", "dir", dir, "err", err)
			os.Exit(1)
		}
		if restored {
			logger.Info("state restored", "dir", dir,
				"vertices", srv.EG.Len(), "materialized", srv.Store.Len())
		}
		save := func(reason string) {
			if err := persist.Save(srv, dir); err != nil {
				logger.Error("state save failed", "reason", reason, "err", err)
			} else {
				logger.Info("state saved", "reason", reason)
			}
		}
		checkpoint = func() { save("checkpoint") }
		final = func() { save("shutdown") }
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		logger.Error("listen failed", "addr", c.addr, "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "strategy", srv.Strategy().Name(),
		"planner", srv.Planner().Name(), "budget", c.budget, "alpha", c.alpha,
		"profile", srv.Store.Profile().Name)
	hs := &http.Server{
		Handler: remote.NewHandler(srv,
			remote.WithHandlerLogger(logger),
			remote.WithPprof(c.pprofOn)),
		ReadHeaderTimeout: readHeaderTimeout,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(hs, ln, stop, c.checkpoint, checkpoint, final, logger); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// drainTimeout bounds how long shutdown waits for requests in flight:
	// well inside the minute a supervisor commonly allows between SIGTERM
	// and SIGKILL, so the final save still runs.
	drainTimeout = 30 * time.Second
)

// serve runs hs on ln until a signal arrives on stop, calling checkpoint
// every interval meanwhile (none when it is nil). It then drains in the
// order that makes the last save the newest: the checkpoint loop stops,
// after the checkpoint under way if there is one; the server stops accepting
// and waits up to drainTimeout for requests in flight; final (when non-nil)
// runs last. A Serve failure before any signal is returned with no final
// save.
func serve(hs *http.Server, ln net.Listener, stop <-chan os.Signal, interval time.Duration,
	checkpoint, final func(), logger *slog.Logger) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	quit := make(chan struct{})
	var saving sync.WaitGroup
	if checkpoint != nil {
		saving.Add(1)
		go func() {
			defer saving.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					checkpoint()
				case <-quit:
					return
				}
			}
		}()
	}
	var err error
	select {
	case err = <-served:
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String())
	}
	close(quit)
	saving.Wait()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("drain cut short", "err", err)
	}
	<-served // http.ErrServerClosed: not a failure
	if final != nil {
		final()
	}
	return nil
}

func logLevelByName(name string) (slog.Level, error) {
	switch name {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (debug|info|warn|error)", name)
	}
}

// profileByName returns the named cost profile, or else the one in the
// profile JSON file at that path.
func profileByName(name string) (cost.Profile, error) {
	switch name {
	case "memory":
		return cost.Memory(), nil
	case "disk":
		return cost.Disk(), nil
	case "remote":
		return cost.Remote(), nil
	}
	blob, err := os.ReadFile(name)
	if err == nil {
		var prof cost.Profile
		if prof, err = cost.ParseProfileJSON(blob); err == nil {
			return prof, nil
		}
	}
	return cost.Profile{}, fmt.Errorf("unknown profile %q (memory|disk|remote, or a profile JSON file): %w", name, err)
}

func strategyByName(name string, cfg materialize.Config) (materialize.Strategy, error) {
	switch name {
	case "sa":
		return materialize.NewStorageAware(cfg), nil
	case "hm":
		return materialize.NewGreedy(cfg), nil
	case "hl":
		return materialize.NewHelix(cfg), nil
	case "all":
		return materialize.NewAll(), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (sa|hm|hl|all)", name)
	}
}

func plannerByName(name string) (reuse.Planner, error) {
	switch name {
	case "ln":
		return reuse.Linear{}, nil
	case "hl":
		return reuse.Helix{}, nil
	case "allm":
		return reuse.AllMaterialized{}, nil
	case "allc":
		return reuse.AllCompute{}, nil
	default:
		return nil, fmt.Errorf("unknown planner %q (ln|hl|allm|allc)", name)
	}
}
