package parallel

import (
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the pool's saturation accounting: queue-wait and run-time
// tracking per For/Do call-site class, submitted/inflight/rejected-inline
// counters, and a utilization gauge — the contention signal the upcoming
// multi-tenant refactor needs (ROADMAP item 1). Accounting is opt-in:
// Instrument(nil), the default, reduces every entry point to one atomic
// pointer load (at width 1, the body run inline:
// TestPoolAtWidthOneAllocatesAsTheBody).

// Site classifies a For/Do call site for accounting. The vocabulary is
// fixed and small so the labeled metric families stay bounded: the columnar
// kernels (internal/data), the ML kernels (internal/ml), and everything
// else. Out-of-range values fold into SiteOther.
type Site int

const (
	// SiteOther is the default class for plain For/Do calls.
	SiteOther Site = iota
	// SiteData tags the columnar kernels (join, group-by, dict, one-hot).
	SiteData
	// SiteML tags the ML kernels (tree/forest/GBT fit and score, k-NN).
	SiteML

	numSites
)

var siteNames = [numSites]string{"other", "data", "ml"}

// String returns the site's metric-label name.
func (s Site) String() string {
	if s < 0 || s >= numSites {
		return siteNames[SiteOther]
	}
	return siteNames[s]
}

// siteInstruments bundles one call-site class's accounting instruments.
type siteInstruments struct {
	calls     *obs.Counter
	tasks     *obs.Counter
	queueWait *obs.Histogram
	run       *obs.Histogram
}

// Metrics is the pool's accounting sink. Build one with NewMetrics (which
// registers the collab_pool_* families on a registry) and install it
// process-wide with Instrument. All instruments are obs types, so a
// partially initialized Metrics is safe — nil instruments no-op.
type Metrics struct {
	sites          [numSites]siteInstruments
	helpers        *obs.Counter
	rejectedInline *obs.Counter
	inflight       *obs.Gauge
}

// Helper spawn-to-first-chunk waits are microseconds when the scheduler is
// healthy; milliseconds mean goroutine pileup. Buckets start far below
// DefBuckets' 100µs floor.
var poolWaitBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// Per-call wall times span sub-millisecond kernels to multi-second fits.
var poolRunBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// NewMetrics registers the collab_pool_* metric families on reg and returns
// the accounting sink. The utilization and width gauges are scrape-backed
// (they read live pool state), so they cost nothing between scrapes.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		helpers: reg.Counter("collab_pool_helpers_total",
			"helper goroutines spawned by the worker pool"),
		rejectedInline: reg.Counter("collab_pool_rejected_inline_total",
			"helper slots denied by the global budget (that work ran inline on its caller)"),
		inflight: reg.Gauge("collab_pool_inflight",
			"For/Do calls currently executing"),
	}
	for s := Site(0); s < numSites; s++ {
		site := s.String()
		m.sites[s] = siteInstruments{
			calls: reg.Counter(obs.Labeled("collab_pool_calls_total", "site", site),
				"For/Do invocations by call-site class"),
			tasks: reg.Counter(obs.Labeled("collab_pool_tasks_total", "site", site),
				"work chunks submitted by call-site class"),
			queueWait: reg.Histogram(obs.Labeled("collab_pool_queue_wait_seconds", "site", site),
				"delay between spawning a helper and it starting its first chunk, by call-site class",
				poolWaitBuckets),
			run: reg.Histogram(obs.Labeled("collab_pool_run_seconds", "site", site),
				"wall time of one For/Do call, by call-site class", poolRunBuckets),
		}
	}
	reg.GaugeFunc("collab_pool_workers",
		"configured pool width (the caller plus helpers)",
		func() float64 { return float64(Workers()) })
	reg.GaugeFunc("collab_pool_utilization",
		"live helper goroutines over the helper budget (Workers()-1); 1.0 = saturated",
		func() float64 { return utilization() })
	return m
}

// RegisterMetrics is NewMetrics plus Instrument: it registers the
// collab_pool_* families on reg and installs the sink process-wide. The
// pool is process-global, so when several servers share one process the
// most recently constructed registry receives the accounting.
func RegisterMetrics(reg *obs.Registry) *Metrics {
	m := NewMetrics(reg)
	Instrument(m)
	return m
}

// acct is the installed accounting sink; nil disables accounting.
var acct atomic.Pointer[Metrics]

// Instrument installs m as the process-wide accounting sink. Nil (the
// default) disables accounting; the disabled path costs one atomic load
// per For/Do call.
func Instrument(m *Metrics) { acct.Store(m) }

// utilization reports live helpers over the helper budget.
func utilization() float64 {
	budget := Workers() - 1
	if budget <= 0 {
		return 0
	}
	return float64(live.Load()) / float64(budget)
}

// Stats is a point-in-time snapshot of the pool accounting, summed across
// call-site classes. It backs /v1/stats, and its deltas around one kernel
// call are how tests check the kernel still runs wide; all fields are zero
// while accounting is uninstalled.
type Stats struct {
	// Calls counts For/Do invocations; Tasks the work chunks they split into.
	Calls int64 `json:"calls"`
	Tasks int64 `json:"tasks"`
	// Helpers counts helper goroutines spawned; RejectedInline counts helper
	// slots the global budget denied (that work ran inline on its caller —
	// the saturation signal).
	Helpers        int64 `json:"helpers"`
	RejectedInline int64 `json:"rejected_inline"`
	// QueueWaitSec sums helper spawn-to-first-chunk delays; RunSec sums
	// per-call wall times.
	QueueWaitSec float64 `json:"queue_wait_sec"`
	RunSec       float64 `json:"run_sec"`
	// Inflight is the number of For/Do calls executing right now;
	// Utilization is live helpers over the helper budget.
	Inflight    int64   `json:"inflight"`
	Utilization float64 `json:"utilization"`
	// Workers is the pool width (Workers()); the only field that is
	// non-zero even when the call-site accounting itself saw no traffic.
	Workers int `json:"workers"`
}

// ReadStats snapshots the installed accounting sink. Zero when accounting
// is disabled.
func ReadStats() Stats {
	m := acct.Load()
	if m == nil {
		return Stats{}
	}
	var st Stats
	for i := range m.sites {
		st.Calls += m.sites[i].calls.Value()
		st.Tasks += m.sites[i].tasks.Value()
		st.QueueWaitSec += m.sites[i].queueWait.Sum()
		st.RunSec += m.sites[i].run.Sum()
	}
	st.Helpers = m.helpers.Value()
	st.RejectedInline = m.rejectedInline.Value()
	st.Inflight = int64(m.inflight.Value())
	st.Utilization = utilization()
	st.Workers = Workers()
	return st
}
