package experiments

import (
	"io"
	"testing"
)

// quick returns a small suite for fast experiment smoke tests; heavier
// shape checks live in the benchmark harness.
func quick(t *testing.T) *Suite {
	t.Helper()
	s := DefaultSuite(io.Discard)
	s.OpenMLRuns = 25
	s.SynthWorkloads = 5
	return s
}

func TestTable1(t *testing.T) {
	rows, err := quick(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Artifacts < 15 {
			t.Errorf("W%d: N=%d too small", r.ID, r.Artifacts)
		}
		if r.TotalBytes <= 0 || r.RunTime <= 0 {
			t.Errorf("W%d: missing measurements: %+v", r.ID, r)
		}
	}
	// Workload 3 generates more artifact volume than workload 2 (it
	// extends it).
	if rows[2].TotalBytes <= rows[1].TotalBytes {
		t.Errorf("W3 bytes (%d) should exceed W2 (%d)", rows[2].TotalBytes, rows[1].TotalBytes)
	}
}

// TestFig4RepeatedExecutionShape asserts Figure 4's shape on work, not on the
// clock: run 2 of a workload is milliseconds at this scale, and comparing it
// with run 1 fails whenever the host is busy. CO and HL reuse what run 1
// stored, so run 2 executes fewer operations; KG stores nothing and runs
// every operation twice. On workloads 2 and 3, where the paper's CO is an
// order of magnitude faster the second time, CO's run 2 executes none of run
// 1's 18 and 131 operations at quick scale; the test allows it a quarter.
func TestFig4RepeatedExecutionShape(t *testing.T) {
	res, err := quick(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 9 { // 3 workloads x 3 systems
		t.Fatalf("got %d results, want 9", len(res))
	}
	for _, r := range res {
		switch r.System {
		case "CO", "HL":
			if r.Executed2 >= r.Executed1 {
				t.Errorf("W%d %s: run 2 executed %d operations, run 1 %d; want fewer", r.Workload, r.System, r.Executed2, r.Executed1)
			}
		case "KG":
			if r.Executed2 != r.Executed1 {
				t.Errorf("W%d KG: run 2 executed %d operations, run 1 %d; want the same", r.Workload, r.Executed2, r.Executed1)
			}
		}
		if r.System == "CO" && (r.Workload == 2 || r.Workload == 3) && 4*r.Executed2 > r.Executed1 {
			t.Errorf("W%d CO: run 2 executed %d of run 1's %d operations, want at most a quarter", r.Workload, r.Executed2, r.Executed1)
		}
	}
}

// TestFig5SequenceShape asserts Figure 5's shape on work, not on the clock:
// the three cumulative totals are a few tenths of a second at this scale and
// their ratio moves with every kernel that gets cheaper on all sides, while
// the operations each system runs over the sequence repeat. KG runs every
// operation of every workload; CO, reusing what earlier workloads stored,
// runs substantially fewer (the paper's 50 % cut is in time; in operations
// it is more); HL's reuse lands in between.
func TestFig5SequenceShape(t *testing.T) {
	res, err := quick(t).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Fig5Result{}
	for _, r := range res {
		if len(r.Cumulative) != 8 {
			t.Fatalf("%s: %d points, want 8", r.System, len(r.Cumulative))
		}
		by[r.System] = r
	}
	co, hl, kg := by["CO"], by["HL"], by["KG"]
	if kg.Reused != 0 {
		t.Errorf("KG reused %d artifacts, it must compute everything", kg.Reused)
	}
	if co.Reused == 0 || hl.Reused == 0 {
		t.Errorf("CO reused %d artifacts and HL %d over the sequence, want both > 0", co.Reused, hl.Reused)
	}
	if float64(co.Executed) > 0.87*float64(kg.Executed) {
		t.Errorf("CO should cut the sequence's work substantially: CO executed %d operations, KG %d", co.Executed, kg.Executed)
	}
	if hl.Executed < co.Executed || hl.Executed > kg.Executed {
		t.Errorf("HL executed %d operations, want between CO's %d and KG's %d", hl.Executed, co.Executed, kg.Executed)
	}
}

func TestFig6MaterializedSizeShape(t *testing.T) {
	s := quick(t)
	res, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	total, _ := s.TotalArtifactBytes()
	byKey := map[string]Fig6Result{}
	for _, r := range res {
		byKey[r.Budget+"/"+r.Strategy] = r
	}
	for _, level := range BudgetLevels() {
		budget := int64(level.Fraction * float64(total))
		hm := byKey[level.Label+"/HM"]
		sa := byKey[level.Label+"/SA"]
		all := byKey[level.Label+"/ALL"]
		if last(hm.SizeAfter) > budget+budget/10 {
			t.Errorf("%s HM stored %d > budget %d", level.Label, last(hm.SizeAfter), budget)
		}
		if last(sa.SizeAfter) < last(hm.SizeAfter) {
			t.Errorf("%s: SA (%d) should store at least as much as HM (%d)", level.Label, last(sa.SizeAfter), last(hm.SizeAfter))
		}
		if last(all.SizeAfter) < last(sa.SizeAfter) {
			t.Errorf("%s: ALL (%d) must be the upper bound (SA=%d)", level.Label, last(all.SizeAfter), last(sa.SizeAfter))
		}
	}
}

func last(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func TestFig9dOverheadShape(t *testing.T) {
	s := quick(t)
	res, err := s.Fig9d()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d planners, want 2", len(res))
	}
	ln, hl := res[0], res[1]
	if ln.Planner != "LN" || hl.Planner != "HL" {
		t.Fatalf("unexpected order: %s, %s", ln.Planner, hl.Planner)
	}
	if hl.Total <= ln.Total {
		t.Errorf("HL overhead (%v) should exceed LN (%v)", hl.Total, ln.Total)
	}
}

// TestFig10WarmstartShape asserts Figure 10(a)'s shape on work, not on the
// clock: the three systems' run-time totals are ~0.2 s each at this scale and
// swap order under scheduling noise, while the epochs their trainings run are
// the same on every run. Reuse without warmstarting trains what OML trains
// (less a model it loads instead); warmstarting adopts donors and converges
// in fewer epochs.
func TestFig10WarmstartShape(t *testing.T) {
	s := quick(t)
	res, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Fig10Result{}
	for _, r := range res {
		by[r.System] = r
	}
	oml, cow := by["OML"], by["CO+W"]
	if oml.Warmstarted != 0 || by["CO-W"].Warmstarted != 0 {
		t.Errorf("only CO+W may warmstart: OML %d, CO-W %d", oml.Warmstarted, by["CO-W"].Warmstarted)
	}
	if cow.Warmstarted == 0 {
		t.Error("CO+W warmstarted no training operation")
	}
	if by["CO-W"].Epochs > oml.Epochs {
		t.Errorf("CO-W trained %d epochs, OML %d: reuse alone must not add training", by["CO-W"].Epochs, oml.Epochs)
	}
	if cow.Epochs >= oml.Epochs {
		t.Errorf("CO+W trained %d epochs, should be fewer than OML's %d", cow.Epochs, oml.Epochs)
	}
}

// TestScalabilityShape asserts the extension figure's flat curve on work,
// not on latencies of a few hundred microseconds each: a probe Optimize
// allocates per workload vertex, not per Experiment Graph vertex.
func TestScalabilityShape(t *testing.T) {
	s := quick(t)
	s.SynthWorkloads = 120
	res, err := s.FigScalability()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 3 {
		t.Fatalf("only %d checkpoints", len(res))
	}
	first, last := res[0], res[len(res)-1]
	if last.EGVertices <= 10*first.EGVertices {
		t.Fatalf("EG grew from %d to %d vertices, want more than tenfold", first.EGVertices, last.EGVertices)
	}
	// The counts are equal today; the ratio leaves room for a plan that
	// finds more to load in a larger graph.
	if float64(last.OptimizeAllocs) > 1.5*float64(first.OptimizeAllocs) {
		t.Errorf("optimizing the probe allocates %d times on %d vertices, %d on %d: planning grows with the EG",
			last.OptimizeAllocs, last.EGVertices, first.OptimizeAllocs, first.EGVertices)
	}
}

func TestFig8aBenchmarkingShape(t *testing.T) {
	s := quick(t)
	res, err := s.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	var co, oml float64
	for _, r := range res {
		tot := seconds(r.Cumulative[len(r.Cumulative)-1])
		if r.System == "CO" {
			co = tot
		} else {
			oml = tot
		}
	}
	if co >= oml {
		t.Errorf("CO (%.2f) should beat OML (%.2f) in model benchmarking", co, oml)
	}
}
