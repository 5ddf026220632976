package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// wideWorkload returns a freshly built copy of the same wide DAG; per-op
// sleep gives compute times large enough that the planner prefers loading
// from a memory-profile store on the second run.
func wideWorkload() *synth.WideProfile {
	return &synth.WideProfile{Branches: 4, Depth: 2, Sleep: time.Millisecond}
}

func TestExecuteTraceRecordsVertexLifecycle(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	p := wideWorkload()

	// Run once untraced to populate the EG and the store.
	if _, err := NewClient(srv).Run(synth.Wide(*p, 7)); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace()
	res, err := NewClient(srv, WithTrace(tr)).Run(synth.Wide(*p, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Fatal("second run reused nothing; trace assertions below need fetches")
	}

	var scheds, fetches, computes, executes int
	for _, ev := range tr.Events() {
		switch ev.Cat {
		case "sched":
			if ev.Ph != "i" {
				t.Errorf("sched event has ph %q, want i", ev.Ph)
			}
			if ev.Args["vertex"] == nil {
				t.Error("sched event missing vertex arg")
			}
			scheds++
		case "fetch":
			if ev.Ph != "X" || ev.Args["reuse"] != true {
				t.Errorf("fetch event malformed: %+v", ev)
			}
			fetches++
		case "compute":
			if ev.Ph != "X" || ev.Args["reuse"] != false {
				t.Errorf("compute event malformed: %+v", ev)
			}
			computes++
		case "execute":
			if ev.Args["reused"] != res.Reused || ev.Args["executed"] != res.Executed {
				t.Errorf("execute summary %v disagrees with result %+v", ev.Args, res)
			}
			executes++
		}
	}
	if fetches != res.Reused {
		t.Errorf("trace has %d fetch spans, result reused %d", fetches, res.Reused)
	}
	if computes != res.Executed {
		t.Errorf("trace has %d compute spans, result executed %d", computes, res.Executed)
	}
	// Every fetched or computed vertex was dispatched (already-computed
	// stop vertices may add sched instants without a span).
	if scheds < fetches+computes {
		t.Errorf("%d sched instants for %d dispatched vertices", scheds, fetches+computes)
	}
	if executes != 1 {
		t.Errorf("%d execute spans, want 1", executes)
	}
}

func TestExecuteTraceDisabledRecordsNothing(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	var tr *obs.Trace // disabled
	if _, err := Execute(synth.Wide(*wideWorkload(), 3), nil, srv, WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("nil trace recorded events")
	}
}

func TestServerMetricsExposition(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	p := wideWorkload()
	for i := 0; i < 2; i++ {
		if _, err := NewClient(srv).Run(synth.Wide(*p, 11)); err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if st.OptimizeCount != 2 || st.UpdateCount != 2 {
		t.Errorf("optimize/update counts = %d/%d, want 2/2",
			st.OptimizeCount, st.UpdateCount)
	}
	if st.ReusePlanned == 0 {
		t.Error("second run should have planned reuse")
	}
	plan, mat := st.PlanTime, st.MatTime
	if plan <= 0 || mat <= 0 {
		t.Errorf("timings plan=%v mat=%v, want positive", plan, mat)
	}

	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"collab_optimize_requests_total 2",
		"collab_update_requests_total 2",
		"collab_plan_reuse_vertices_total",
		"collab_store_get_hits_total",
		"collab_eg_vertices",
		"collab_materialize_runs_total 2",
		"collab_optimize_seconds_count 2",
		"collab_plan_pruned_vertices_total",
		"collab_plan_pruned_by_cost_total",
		"collab_plan_pruned_not_materialized_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The lock section of the removed run-report call is gone.
	if strings.Contains(out, `section="report"`) {
		t.Error(`exposition still carries section="report"`)
	}
}

// TestDisabledInstrumentsAllocateAsAbsent gates what the *Overhead benchmarks
// show, with a count instead of a timing: switching tracing or explain
// capture off costs exactly what never asking for it costs, and switching it
// on costs no less; for explain, whose optimize record can be built alone,
// switching it on costs exactly the record, and an update, whose record is
// rendered when it is read, costs the same on as off. Calibration
// measurement has no switch:
// Execute on a reuse-heavy plan allocates what it did when measurement was
// an option that was on. Width 1 keeps the counts free of goroutine
// start-up.
func TestDisabledInstrumentsAllocateAsAbsent(t *testing.T) {
	for _, c := range []struct {
		name string
		arms []overheadArm
		// free: enabled allocates exactly what disabled does.
		free bool
	}{
		{"trace", traceArms(t, 1), false},
		{"explain", explainArms(t), false},
		{"explain update", explainUpdateArms(t), true},
	} {
		allocs := map[string]float64{}
		for _, arm := range c.arms {
			allocs[arm.name] = stagedAllocsPerCall(arm.stage)
		}
		t.Logf("%s: allocations per call %v", c.name, allocs)
		if allocs["disabled"] != allocs["absent"] {
			t.Errorf("%s disabled allocates %.0f times per call, absent %.0f: the off path does work",
				c.name, allocs["disabled"], allocs["absent"])
		}
		if allocs["enabled"] < allocs["disabled"] {
			t.Errorf("%s enabled allocates %.0f times per call, fewer than disabled (%.0f): the arms are mislabelled",
				c.name, allocs["enabled"], allocs["disabled"])
		}
		// Where the instrument's own work can be run alone, enabled is
		// disabled plus exactly that: no part of it is done on the off path.
		if alone, ok := allocs["record-alone"]; ok && allocs["enabled"] != allocs["disabled"]+alone {
			t.Errorf("%s enabled allocates %.0f times per call, disabled %.0f, the record alone %.0f: part of the record is built on the off path",
				c.name, allocs["enabled"], allocs["disabled"], alone)
		}
		if c.free && allocs["enabled"] != allocs["disabled"] {
			t.Errorf("%s enabled allocates %.0f times per call, disabled %.0f: switching it on does work",
				c.name, allocs["enabled"], allocs["disabled"])
		}
	}
	// 76 is what this plan's Execute allocated with calibration measurement
	// switched on, when it could still be switched off (and off too).
	const measuredAllocs = 76
	setWorkers(t, 1)
	if got := stagedAllocsPerCall(stageExecute(t, primedServer(t), true)); got != measuredAllocs {
		t.Errorf("Execute on a reuse plan allocates %.0f times per call, want %d", got, measuredAllocs)
	}
}

// TestTimingsDoesNotQueueBehindAnUpdate: the totals /v1/stats serves are read
// while another request holds the update section, so a scrape during a long
// update neither waits for it nor shows up as lock wait.
func TestTimingsDoesNotQueueBehindAnUpdate(t *testing.T) {
	srv := NewServer(store.New(cost.Memory()))
	if _, err := NewClient(srv).Run(synth.Wide(*wideWorkload(), 11)); err != nil {
		t.Fatal(err)
	}
	release := srv.lockSection("update", &obs.Request{})
	defer release()
	waited := srv.Stats().LockWaitSec

	done := make(chan [2]time.Duration, 1)
	go func() {
		st := srv.Stats()
		done <- [2]time.Duration{st.PlanTime, st.MatTime}
	}()
	select {
	case got := <-done:
		if got[0] <= 0 || got[1] <= 0 {
			t.Errorf("timings plan=%v mat=%v after one run, want positive", got[0], got[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats() is waiting for the server mutex")
	}
	if srv.Stats().LockWaitSec != waited {
		t.Error("reading the timings was accounted as lock wait")
	}
}
