package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro"
)

// target is a running server, driven over HTTP and read from outside.
type target interface {
	baseURL() string
	scrape() scrape
	proc() procStats
	readyTime() time.Duration
	// stop ends the server gracefully (it may save its state) and
	// reports how long that took.
	stop() (time.Duration, error)
}

func (c *collabd) baseURL() string              { return c.url }
func (c *collabd) readyTime() time.Duration     { return c.readyIn }
func (c *collabd) stop() (time.Duration, error) { return c.terminate() }

// launcher starts a server with its default flags plus args.
type launcher func(args ...string) (target, error)

// client is one collaborator: a core client bound to an optimizer, and a
// way to ask that optimizer for the transport error it swallowed.
type client struct {
	idx   int
	run   *repro.Client
	errOf func() error
}

// remoteClient binds client idx to the server at url through the public
// remote path. named sends the X-Collab-Client header, which the meter
// needs to tell concurrent clients apart.
func remoteClient(url string, idx int, named bool) *client {
	ro := repro.NewRemoteOptimizer(url)
	if named {
		ro.SetName("c" + strconv.Itoa(idx))
	}
	return &client{idx: idx, run: repro.NewClient(ro), errOf: ro.Err}
}

// runRec ties one Client.Run to its span and to what the executor reported.
type runRec struct {
	span     int
	execWall time.Duration
	reused   int
}

// stepStat is the outcome of one step.
type stepStat struct {
	latency time.Duration
	doneAt  time.Duration // since the phase started
	err     error

	execWall, compute, optimizeOverhead time.Duration
	executed, reused, warmstarted       int
}

// add folds the outcome of a further run of the same step into st.
func (st *stepStat) add(o stepStat) {
	if st.err == nil {
		st.err = o.err
	}
	st.latency += o.latency
	st.execWall += o.execWall
	st.compute += o.compute
	st.optimizeOverhead += o.optimizeOverhead
	st.executed += o.executed
	st.reused += o.reused
	st.warmstarted += o.warmstarted
}

// runner drives one workload's steps through clients and keeps the books.
type runner struct {
	meter *meter    // nil for in-process runs
	rec   *recorder // nil unless traced

	mu   sync.Mutex
	runs []runRec
}

// step runs jobs as step idx of client c.
func (r *runner) step(c *client, idx int, jobs []job) stepStat {
	var st stepStat
	var failedBefore int64
	if r.meter != nil {
		slot := &r.meter.slots[c.idx]
		slot.step.Store(int64(idx))
		failedBefore = slot.failed.Load()
	}
	start := time.Now()
	for _, j := range jobs {
		spanID := -1
		if r.rec != nil {
			spanID = r.rec.begin("run", "", c.idx, idx, -1)
			r.meter.slots[c.idx].runSpan.Store(int64(spanID))
		}
		dag := j.build()
		res, err := c.run.Run(dag)
		if r.rec != nil {
			r.rec.end(spanID, nil)
		}
		if err == nil && c.errOf != nil {
			err = c.errOf()
		}
		if err == nil && j.check != nil {
			err = j.check(dag, res)
		}
		if err != nil && st.err == nil {
			st.err = err
		}
		if res == nil {
			continue
		}
		st.execWall += res.WallTime
		st.compute += res.ComputeTime
		st.optimizeOverhead += res.OptimizeOverhead
		st.executed += res.Executed
		st.reused += res.Reused
		st.warmstarted += res.Warmstarted
		if r.rec != nil {
			r.mu.Lock()
			r.runs = append(r.runs, runRec{span: spanID, execWall: res.WallTime, reused: res.Reused})
			r.mu.Unlock()
		}
	}
	st.latency = time.Since(start)
	if r.meter != nil && st.err == nil {
		if n := r.meter.failures(c.idx) - failedBefore; n > 0 {
			st.err = fmt.Errorf("%d HTTP request(s) failed", n)
		}
	}
	return st
}

// mustRun runs set-up jobs, where any failure ends the benchmark.
func (r *runner) mustRun(c *client, what string, jobs []job) error {
	if st := r.step(c, -1, jobs); st.err != nil {
		return fmt.Errorf("%s: %w", what, st.err)
	}
	return nil
}

// serverWindow is what the outside saw of one server across the steps it
// served.
type serverWindow struct {
	counters scrapeDelta
	procFrom procStats
	procTo   procStats
	readyIn  time.Duration
}

// phase is the measured part of a run.
type phase struct {
	wall      time.Duration
	steps     []stepStat
	wireBytes int64
	windows   []serverWindow
	// marks are full scrapes taken when the step counter first reached
	// the keyed value (traced runs only), for growth-with-EG metrics.
	marks map[int]scrape
}

// session is a workload bound to a way of launching servers.
type session struct {
	w      *workload
	launch launcher
	r      *runner
	p      *prepared
	dir    string // store directory of the tiered workload

	srv target
	// memBudget is the tiered server's memory budget in bytes, a quarter
	// of what an unbounded server held after priming.
	memBudget int64

	// setupHost and phaseHost take the reference bursts of set-up and of
	// the measured phase; see hostclock.go.
	setupHost, phaseHost *hostClock
}

// setupBurst is the size of a reference burst between the parts of set-up.
const setupBurst = 8

// tick runs one reference burst of set-up.
func (s *session) tick() { s.setupHost.burst(setupBurst) }

// prime runs the priming jobs against srv, with a reference burst after
// each.
func (s *session) prime(srv target, what string) error {
	c := remoteClient(srv.baseURL(), 0, false)
	for _, j := range s.p.prime {
		if err := s.r.mustRun(c, what, []job{j}); err != nil {
			return err
		}
		s.tick()
	}
	return nil
}

// serverArgs are the flags the measured server gets beyond collabd's
// defaults.
func (s *session) serverArgs() []string {
	if !s.w.tiered {
		return nil
	}
	return []string{"-store-dir", s.dir, "-profile", "disk", "-mem-budget", strconv.FormatInt(s.memBudget, 10)}
}

// bring starts a server and pushes the warm-up runs through it.
func (s *session) bring(args ...string) (target, error) {
	srv, err := s.launch(args...)
	if err != nil {
		return nil, err
	}
	if err := s.r.mustRun(remoteClient(srv.baseURL(), 0, false), "warm-up", warmupJobs()); err != nil {
		_, _ = srv.stop()
		return nil, err
	}
	return srv, nil
}

// setUp generates the inputs and leaves s.srv primed, warmed up and ready
// for the first measured step.
func (s *session) setUp(seed int64, sz sizing) error {
	s.tick()
	s.p = s.w.prepare(seed, sz, s.tick)
	s.tick()
	if !s.w.tiered {
		srv, err := s.bring()
		if err != nil {
			return err
		}
		s.srv = srv
		s.tick()
		return s.prime(srv, "priming")
	}
	// Tiered: prime an unbounded server to learn the primed store's
	// physical size, then prime a second, empty one that has a quarter of
	// that as memory budget and a disk tier to demote to. Priming under the
	// budget pushes the cold artifacts to disk, so the measured steps fetch
	// their features from the disk tier of a store under memory pressure.
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	first, err := s.launch()
	if err != nil {
		return err
	}
	err = s.prime(first, "sizing pass")
	physical := first.scrape().gauge("PhysicalBytes")
	if _, stopErr := first.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if !(physical > 0) {
		return fmt.Errorf("primed server reports no PhysicalBytes in /v1/stats")
	}
	s.memBudget = int64(physical / 4)
	s.tick()
	srv, err := s.bring(s.serverArgs()...)
	if err != nil {
		return err
	}
	s.srv = srv
	s.tick()
	return s.prime(srv, "priming")
}

// measure runs the prepared steps against s.srv (and, for a cold-per-step
// workload, against a fresh server per step, whose start-up is not timed).
func (s *session) measure() (*phase, error) {
	n := len(s.p.steps)
	ph := &phase{steps: make([]stepStat, n), marks: make(map[int]scrape)}
	traced := s.r.rec != nil
	wireBefore := s.r.meter.wireBytes()

	open := func() serverWindow {
		w := serverWindow{procFrom: s.srv.proc(), readyIn: s.srv.readyTime()}
		if traced {
			w.counters.before = s.srv.scrape()
		}
		return w
	}
	closeWin := func(w serverWindow) {
		w.procTo = s.srv.proc()
		if traced {
			w.counters.after = s.srv.scrape()
		}
		ph.windows = append(ph.windows, w)
	}

	if s.w.coldPerStep {
		c := remoteClient(s.srv.baseURL(), 0, false)
		for i, jobs := range s.p.steps {
			if i > 0 {
				if _, err := s.srv.stop(); err != nil {
					return nil, err
				}
				srv, err := s.bring(s.serverArgs()...)
				if err != nil {
					return nil, err
				}
				s.srv = srv
				c = remoteClient(srv.baseURL(), 0, false)
			}
			win := open()
			// A pass is few, long runs: the reference work goes between
			// the runs of a pass, outside the pass's time.
			s.phaseHost.burst(s.w.burstUnits)
			for j := range jobs {
				ph.steps[i].add(s.r.step(c, i, jobs[j:j+1]))
				s.phaseHost.burst(s.w.burstUnits)
			}
			ph.wall += ph.steps[i].latency
			ph.steps[i].doneAt = ph.wall
			closeWin(win)
		}
		ph.wireBytes = s.r.meter.wireBytes() - wireBefore
		return ph, nil
	}

	win := open()
	markAt := map[int]bool{}
	if traced && n >= 300 {
		markAt[100], markAt[n-100] = true, true
	}
	clients := make([]*client, s.w.clients)
	for ci := range clients {
		clients[ci] = remoteClient(s.srv.baseURL(), ci, s.w.clients > 1)
	}
	// The steps run in segments of burstEvery. Between two segments every
	// client has returned and the reference work runs alone; the phase's
	// time is the sum of its segments.
	s.phaseHost.burst(s.w.burstUnits)
	for from := 0; from < n; from += s.w.burstEvery {
		to := min(from+s.w.burstEvery, n)
		before := ph.wall
		start := time.Now()
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := from; i < to; i++ {
					if i%len(clients) != c.idx {
						continue
					}
					if markAt[i] {
						m := s.srv.scrape()
						s.r.mu.Lock()
						ph.marks[i] = m
						s.r.mu.Unlock()
					}
					ph.steps[i] = s.r.step(c, i, s.p.steps[i])
					ph.steps[i].doneAt = before + time.Since(start)
				}
			}()
		}
		wg.Wait()
		ph.wall += time.Since(start)
		s.phaseHost.burst(s.w.burstUnits)
	}
	ph.wireBytes = s.r.meter.wireBytes() - wireBefore
	closeWin(win)
	return ph, nil
}

// elapsedAt is how long the phase took to complete its first k steps.
func (ph *phase) elapsedAt(k int) time.Duration {
	var t time.Duration
	for _, st := range ph.steps[:k] {
		if st.doneAt > t {
			t = st.doneAt
		}
	}
	return t
}

// failed counts the steps that did not succeed.
func (ph *phase) failed() (n int, first error) {
	for _, st := range ph.steps {
		if st.err != nil {
			if n == 0 {
				first = st.err
			}
			n++
		}
	}
	return n, first
}

// inProcessWall runs the first k steps through an in-process server (no
// HTTP) and returns their makespan. naive computes every vertex with no
// reuse; otherwise the server is configured like collabd's defaults and is
// primed and warmed up like the real one.
func (s *session) inProcessWall(k int, naive bool) (time.Duration, error) {
	r := &runner{}
	fresh := func() (*client, error) {
		if naive {
			return &client{run: naiveClient()}, nil
		}
		c := &client{run: repro.NewClient(repro.NewMemoryServer(repro.WithWarmstart(true)))}
		if err := r.mustRun(c, "in-process warm-up", warmupJobs()); err != nil {
			return nil, err
		}
		return c, r.mustRun(c, "in-process priming", s.p.prime)
	}
	var c *client
	return r.prefixWall(s.p.steps[:k], func(i int) (*client, error) {
		if i == 0 || s.w.coldPerStep {
			var err error
			if c, err = fresh(); err != nil {
				return nil, err
			}
		}
		return c, nil
	})
}

// prefixWall runs steps one after another, each through the client
// clientFor hands out (whose making is not timed), and returns the sum of
// their latencies. A failed step ends the rerun.
func (r *runner) prefixWall(steps [][]job, clientFor func(i int) (*client, error)) (time.Duration, error) {
	var wall time.Duration
	for i, jobs := range steps {
		c, err := clientFor(i)
		if err != nil {
			return 0, err
		}
		st := r.step(c, i, jobs)
		if st.err != nil {
			return 0, fmt.Errorf("rerun of step %d: %w", i, st.err)
		}
		wall += st.latency
	}
	return wall, nil
}

// bareWall runs the first k steps against a server started with the
// workload's instrumentation-off flags and returns their makespan.
func (s *session) bareWall(k int) (time.Duration, error) {
	srv, err := s.bring(s.w.bareArgs...)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	r := &runner{meter: s.r.meter}
	c := remoteClient(srv.baseURL(), 0, false)
	if err := r.mustRun(c, "bare priming", s.p.prime); err != nil {
		return 0, err
	}
	return r.prefixWall(s.p.steps[:k], func(int) (*client, error) { return c, nil })
}

// persistStats is what a stop/start cycle of the tiered server costs.
type persistStats struct {
	shutdownSave, restoreReady time.Duration
	snapshotMB, restoredFrac   float64
}

// restartCycle stops s.srv with SIGTERM (it flushes and saves), starts it
// again on the same directories, and fetches every artifact the traced phase
// fetched once more: each must come back with the SizeBytes it had before
// the restart.
func (s *session) restartCycle(spans []span) (persistStats, error) {
	sizes := make(map[string]int64)
	before := repro.NewRemoteOptimizer(s.srv.baseURL())
	for _, sp := range spans {
		if sp.name != "fetch" || sp.status != 200 {
			continue
		}
		if _, seen := sizes[sp.artifact]; seen {
			continue
		}
		if a := before.Fetch(sp.artifact); a != nil {
			sizes[sp.artifact] = a.SizeBytes()
		}
	}
	var ps persistStats
	var err error
	if ps.shutdownSave, err = s.srv.stop(); err != nil {
		return ps, err
	}
	s.srv = nil
	ps.snapshotMB = topLevelMB(s.dir)
	srv, err := s.launch(s.serverArgs()...)
	if err != nil {
		return ps, err
	}
	s.srv = srv
	ps.restoreReady = srv.readyTime()
	same := 0
	after := repro.NewRemoteOptimizer(srv.baseURL())
	for id, want := range sizes {
		if a := after.Fetch(id); a != nil && a.SizeBytes() == want {
			same++
		}
	}
	ps.restoredFrac = ratio(float64(same), float64(len(sizes)))
	return ps, nil
}

// topLevelMB sums the regular files directly in dir (the EG and store
// snapshots), in MB.
func topLevelMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return absent
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return float64(total) / 1e6
}

// selfCPU returns the user+system CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return absent
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
