package parallel

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// install puts a fresh accounting sink in place for one test and restores
// the disabled default afterwards.
func install(t *testing.T) *Metrics {
	t.Helper()
	reg := obs.NewRegistry()
	m := RegisterMetrics(reg)
	t.Cleanup(func() { Instrument(nil) })
	return m
}

func TestAccountingCounts(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	m := install(t)

	For(100, 10, func(lo, hi int) {}) // 10 chunks, SiteOther
	ForSite(SiteData, 30, 10, func(lo, hi int) {})
	DoSite(SiteML, func() {}, func() {})

	other, data, ml := &m.sites[SiteOther], &m.sites[SiteData], &m.sites[SiteML]
	if got := other.calls.Value(); got != 1 {
		t.Fatalf("other calls = %d, want 1", got)
	}
	if got := other.tasks.Value(); got != 10 {
		t.Fatalf("other tasks = %d, want 10", got)
	}
	if got := data.calls.Value(); got != 1 {
		t.Fatalf("data calls = %d, want 1", got)
	}
	if got := data.tasks.Value(); got != 3 {
		t.Fatalf("data tasks = %d, want 3", got)
	}
	if got := ml.calls.Value(); got != 1 {
		t.Fatalf("ml calls = %d, want 1", got)
	}
	if got := ml.tasks.Value(); got != 2 {
		t.Fatalf("ml tasks = %d, want 2", got)
	}
	// Every accounted call observes exactly one run-time sample; every
	// spawned helper observes exactly one queue wait.
	if runs := other.run.Count() + data.run.Count() + ml.run.Count(); runs != 3 {
		t.Fatalf("run samples = %d, want 3", runs)
	}
	waits := other.queueWait.Count() + data.queueWait.Count() + ml.queueWait.Count()
	if waits != m.helpers.Value() {
		t.Fatalf("queue-wait samples = %d, helpers = %d; must match", waits, m.helpers.Value())
	}
	if got := m.inflight.Value(); got != 0 {
		t.Fatalf("inflight after quiescence = %v, want 0", got)
	}
}

// TestNestedAccounting is the nesting contract under accounting: nested
// For/Do must neither deadlock nor double-count — each invocation is
// exactly one call, each chunk exactly one task, and the inflight gauge
// returns to zero. Run under -race this also exercises the accounting
// path's concurrency (helpers observing queue waits while the caller
// updates counters).
func TestNestedAccounting(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	m := install(t)

	var units atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForSite(SiteData, 16, 2, func(l, h int) {
				units.Add(int64(h - l))
			})
		}
	})
	if units.Load() != 8*16 {
		t.Fatalf("nested work ran %d units, want %d", units.Load(), 8*16)
	}

	other, data := &m.sites[SiteOther], &m.sites[SiteData]
	// Outer: one call, 8 chunks. Inner: 8 calls of 8 chunks each —
	// regardless of whether they ran on helpers or inline.
	if got := other.calls.Value(); got != 1 {
		t.Fatalf("outer calls = %d, want 1", got)
	}
	if got := other.tasks.Value(); got != 8 {
		t.Fatalf("outer tasks = %d, want 8", got)
	}
	if got := data.calls.Value(); got != 8 {
		t.Fatalf("inner calls = %d, want 8", got)
	}
	if got := data.tasks.Value(); got != 64 {
		t.Fatalf("inner tasks = %d, want 64", got)
	}
	if runs := other.run.Count() + data.run.Count(); runs != 9 {
		t.Fatalf("run samples = %d, want 9 (one per call)", runs)
	}
	if waits := other.queueWait.Count() + data.queueWait.Count(); waits != m.helpers.Value() {
		t.Fatalf("queue-wait samples = %d, helpers = %d; must match", waits, m.helpers.Value())
	}
	if got := m.inflight.Value(); got != 0 {
		t.Fatalf("inflight after quiescence = %v, want 0", got)
	}
	if got := live.Load(); got != 0 {
		t.Fatalf("live helpers after quiescence = %d, want 0", got)
	}
}

func TestReadStats(t *testing.T) {
	Instrument(nil)
	if st := ReadStats(); st != (Stats{}) {
		t.Fatalf("disabled ReadStats = %+v, want zero", st)
	}
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	install(t)
	For(64, 8, func(lo, hi int) {})
	st := ReadStats()
	if st.Calls != 1 || st.Tasks != 8 {
		t.Fatalf("ReadStats calls=%d tasks=%d, want 1/8", st.Calls, st.Tasks)
	}
	if st.RunSec < 0 || st.Inflight != 0 {
		t.Fatalf("ReadStats run=%v inflight=%d, want >=0 and 0", st.RunSec, st.Inflight)
	}
}

func TestSiteStringBounds(t *testing.T) {
	for s, want := range map[Site]string{
		SiteOther: "other", SiteData: "data", SiteML: "ml",
		Site(-1): "other", Site(99): "other",
	} {
		if got := s.String(); got != want {
			t.Fatalf("Site(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestPoolMetricsRender pins the collab_pool_* families onto the scrape
// output, including the labeled site blocks.
func TestPoolMetricsRender(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	t.Cleanup(func() { Instrument(nil) })
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	ForSite(SiteData, 32, 4, func(lo, hi int) {})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`collab_pool_calls_total{site="data"} 1`,
		`collab_pool_tasks_total{site="data"} 8`,
		`collab_pool_calls_total{site="ml"} 0`,
		"# TYPE collab_pool_queue_wait_seconds histogram",
		"collab_pool_utilization",
		"collab_pool_workers 2",
		"collab_pool_rejected_inline_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape output missing %q:\n%s", want, out)
		}
	}
}

// poolBody is the loop the accounting arms run over 1024 indices.
func poolBody(lo, hi int) {
	s := 0
	for i := lo; i < hi; i++ {
		s += i
	}
	_ = s
}

// poolArm is one arm of the accounting's cost. setup installs the arm's
// accounting state; Instrument(nil) afterwards restores the default.
type poolArm struct {
	name  string
	setup func()
	call  func()
}

// poolArms are the loop with no pool in the way (a direct call of the body),
// through the pool with accounting off, and with accounting on.
func poolArms() []poolArm {
	through := func() { For(1024, 64, poolBody) }
	return []poolArm{
		{"absent", func() {}, func() { poolBody(0, 1024) }},
		{"accounting=off", func() { Instrument(nil) }, through},
		{"accounting=on", func() { RegisterMetrics(obs.NewRegistry()) }, through},
	}
}

// BenchmarkPoolAccountingOverhead times poolArms at the configured width: the
// accounting=off path must stay ≈ the bare pool (one atomic pointer load),
// and accounting=on shows the full instrumented price.
func BenchmarkPoolAccountingOverhead(b *testing.B) {
	defer Instrument(nil)
	for _, arm := range poolArms() {
		b.Run(arm.name, func(b *testing.B) {
			arm.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.call()
			}
		})
	}
}

// TestPoolAtWidthOneAllocatesAsTheBody gates BenchmarkPoolAccountingOverhead
// with a count instead of a timing: at width 1 the pool with accounting off
// is the body run inline — no chunk counter, closure or wait group — and
// accounting on costs no less.
func TestPoolAtWidthOneAllocatesAsTheBody(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	defer Instrument(nil)
	allocs := map[string]float64{}
	for _, arm := range poolArms() {
		arm.setup()
		allocs[arm.name] = testing.AllocsPerRun(100, arm.call)
	}
	t.Logf("allocations per call: %v", allocs)
	if allocs["accounting=off"] != allocs["absent"] {
		t.Errorf("For with accounting off costs %.0f allocations at width 1, the body alone %.0f", allocs["accounting=off"], allocs["absent"])
	}
	if allocs["accounting=on"] < allocs["accounting=off"] {
		t.Errorf("For with accounting on costs %.0f allocations, fewer than with it off (%.0f): the arms are mislabelled",
			allocs["accounting=on"], allocs["accounting=off"])
	}
}

// TestForSpawnsHelpersAtWidth replaces a speed-up ratio between two timings
// with the count that causes it: at width N a call with at least N chunks
// runs on the caller plus N-1 helpers, and at width 1 on the caller alone.
func TestForSpawnsHelpersAtWidth(t *testing.T) {
	install(t)
	for _, width := range []int{1, 4} {
		prev := SetWorkers(width)
		before := ReadStats()
		For(1024, 64, poolBody)
		after := ReadStats()
		SetWorkers(prev)
		if got := after.Helpers - before.Helpers; got != int64(width-1) {
			t.Errorf("width %d: one For over 16 chunks spawned %d helpers, want %d", width, got, width-1)
		}
		if got := after.RejectedInline - before.RejectedInline; got != 0 {
			t.Errorf("width %d: %d helper slots denied on an idle pool", width, got)
		}
	}
}
