package calib

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// -update rewrites the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

func TestTierAndOpFamilies(t *testing.T) {
	cases := map[string]string{
		"memory":      "load:memory",
		"disk":        "load:disk",
		"remote":      "load:remote",
		"remote:disk": "load:remote",
		"":            "load:unknown",
	}
	for in, want := range cases {
		if got := tierFamily(in); got != want {
			t.Errorf("tierFamily(%q) = %q, want %q", in, got, want)
		}
	}
	if got := opFamily("train"); got != "compute:train" {
		t.Errorf("opFamily = %q", got)
	}
	if got := opFamily(""); got != "compute:other" {
		t.Errorf("opFamily(\"\") = %q", got)
	}
}

// familyOf returns the named family of a report (zero when absent).
func familyOf(r *Report, name string) FamilyReport {
	for _, f := range r.Families {
		if f.Name == name {
			return f
		}
	}
	return FamilyReport{}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	// Predictions exactly 2x actual: mean abs rel err must be 1.0.
	for i := 0; i < 10; i++ {
		c.ObserveLoad("memory", 1000, 20*time.Millisecond, 10*time.Millisecond)
	}
	c.ObserveCompute("train", 50*time.Millisecond, 100*time.Millisecond)
	c.ObserveCompute("join", 10*time.Millisecond, 10*time.Millisecond)
	r := c.Snapshot()
	if len(r.Families) != 3 {
		t.Fatalf("families = %+v, want compute:join, compute:train, load:memory", r.Families)
	}
	mem := familyOf(r, "load:memory")
	if mem.Count != 10 {
		t.Fatalf("load:memory count = %d, want 10", mem.Count)
	}
	if math.Abs(mem.MeanAbsRelErr-1.0) > 1e-9 {
		t.Errorf("load:memory MeanAbsRelErr = %v, want 1.0", mem.MeanAbsRelErr)
	}
	// Constant rel err: EWMA converges to the same value.
	if math.Abs(mem.Drift-1.0) > 1e-9 {
		t.Errorf("load:memory Drift = %v, want 1.0", mem.Drift)
	}
	if mem.BytesMean != 1000 {
		t.Errorf("load:memory BytesMean = %v, want 1000", mem.BytesMean)
	}
	// train: |50-100|/100 = 0.5; join: 0.
	train, join := familyOf(r, "compute:train"), familyOf(r, "compute:join")
	if train.Count != 1 || join.Count != 1 {
		t.Fatalf("compute counts train=%d join=%d, want 1 each", train.Count, join.Count)
	}
	if math.Abs(train.MeanAbsRelErr-0.5) > 1e-9 || join.MeanAbsRelErr != 0 {
		t.Errorf("compute MeanAbsRelErr train=%v join=%v, want 0.5 and 0", train.MeanAbsRelErr, join.MeanAbsRelErr)
	}
	if math.Abs(train.Drift-0.5) > 1e-9 || join.Drift != 0 {
		t.Errorf("compute Drift train=%v join=%v, want 0.5 and 0", train.Drift, join.Drift)
	}
	if train.BytesMean != 0 {
		t.Errorf("compute family carries BytesMean %v", train.BytesMean)
	}
}

func TestCollectorFamilyCap(t *testing.T) {
	c := NewCollector()
	for i := 0; i < maxFamilies+20; i++ {
		c.ObserveCompute(strings.Repeat("x", i+1), time.Millisecond, time.Millisecond)
	}
	c.mu.Lock()
	n := len(c.families)
	overflow := c.families["compute:other"]
	c.mu.Unlock()
	if n > maxFamilies+1 {
		t.Fatalf("family map grew to %d, cap is %d", n, maxFamilies)
	}
	if overflow == nil || overflow.count == 0 {
		t.Fatal("overflow observations should fold into compute:other")
	}
}

// TestCollectorBoundsEachKindSeparately: a collector already holding more
// compute families than the cap still files a first load observation under
// its tier, fit sample included, and compute keeps every observation.
func TestCollectorBoundsEachKindSeparately(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.ObserveCompute(fmt.Sprintf("derive:col%d", i), time.Millisecond, time.Millisecond)
	}
	c.ObserveLoad("memory", 1<<20, time.Millisecond, 2*time.Millisecond)
	r := c.Snapshot()
	if got := familyOf(r, "load:memory").Count; got != 1 {
		t.Errorf("load:memory count = %d, want 1", got)
	}
	var computeObs int64
	for _, f := range r.Families {
		if strings.HasPrefix(f.Name, "compute:") {
			computeObs += f.Count
		}
	}
	if computeObs != 100 {
		t.Errorf("compute observations = %d, want 100", computeObs)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.families["load:memory"].samples; len(s) != 1 || s[0].Bytes != 1<<20 {
		t.Errorf("load:memory fit samples = %v, want the one sample", s)
	}
	if f := c.families["compute:other"]; f == nil || f.count != 100-maxFamilies {
		t.Errorf("compute:other = %+v, want the %d compute observations past the cap", f, 100-maxFamilies)
	}
	if len(c.families) != maxFamilies+2 {
		t.Errorf("%d families, want %d compute (other included) and one load", len(c.families), maxFamilies+2)
	}
}

func TestScorecardMath(t *testing.T) {
	sc := NewScorecard("req-1", 3, 2,
		800*time.Millisecond, // recreation Cr of reused set
		100*time.Millisecond, // measured fetch
		400*time.Millisecond) // measured compute
	if math.Abs(sc.EstimatedSavedSec-0.7) > 1e-9 {
		t.Errorf("EstimatedSavedSec = %v, want 0.7", sc.EstimatedSavedSec)
	}
	if math.Abs(sc.NaiveSec-1.2) > 1e-9 {
		t.Errorf("NaiveSec = %v, want 1.2", sc.NaiveSec)
	}
	if math.Abs(sc.ActualSec-0.5) > 1e-9 {
		t.Errorf("ActualSec = %v, want 0.5", sc.ActualSec)
	}
	if math.Abs(sc.Speedup-2.4) > 1e-9 {
		t.Errorf("Speedup = %v, want 2.4", sc.Speedup)
	}

	// No reuse, nothing measured: speedup pins to 1, not NaN.
	idle := NewScorecard("req-2", 0, 0, 0, 0, 0)
	if idle.Speedup != 1 {
		t.Errorf("idle Speedup = %v, want 1", idle.Speedup)
	}
}

func TestRecordScorecardTotals(t *testing.T) {
	c := NewCollector()
	a := NewScorecard("a", 1, 1, time.Second, 100*time.Millisecond, time.Second)
	a.WallSec = 0.75
	b := NewScorecard("b", 2, 0, 2*time.Second, 200*time.Millisecond, 0)
	b.WallSec = 0.25
	c.RecordScorecard(a)
	c.RecordScorecard(b)
	r := c.Snapshot()
	if r.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", r.Runs)
	}
	if math.Abs(r.WallSecTotal-1.0) > 1e-9 {
		t.Errorf("WallSecTotal = %v, want 1.0", r.WallSecTotal)
	}
	if math.Abs(r.EstimatedSavedSecTotal-(0.9+1.8)) > 1e-9 {
		t.Errorf("EstimatedSavedSecTotal = %v, want 2.7", r.EstimatedSavedSecTotal)
	}
	if math.Abs(r.FetchActualSecTotal-0.3) > 1e-9 {
		t.Errorf("FetchActualSecTotal = %v, want 0.3", r.FetchActualSecTotal)
	}
	if r.LastRun == nil || r.LastRun.RequestID != "b" || math.Abs(r.LastRun.WallSec-0.25) > 1e-9 {
		t.Fatalf("LastRun = %+v, want request b with wall 0.25", r.LastRun)
	}
	// The report's scorecard is a copy: mutating it must not leak back.
	r.LastRun.RequestID = "mutated"
	if got := c.Snapshot().LastRun; got.RequestID != "b" {
		t.Error("Snapshot returned shared state")
	}
}

func TestSnapshotDriftFlagAndFits(t *testing.T) {
	c := NewCollector()
	// Wildly overpredicted memory loads across varied sizes: flags drift
	// and provides enough samples to fit.
	for i := 1; i <= 20; i++ {
		size := int64(i * 1000)
		actual := time.Duration(i) * 10 * time.Microsecond
		c.ObserveLoad("memory", size, 100*actual, actual)
	}
	// Well-calibrated compute family: no flag.
	c.ObserveCompute("join", time.Millisecond, time.Millisecond)

	r := c.Snapshot()
	if len(r.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(r.Families))
	}
	if r.Families[0].Name != "compute:join" || r.Families[1].Name != "load:memory" {
		t.Fatalf("families not sorted: %q, %q", r.Families[0].Name, r.Families[1].Name)
	}
	if len(r.DriftFlagged) != 1 || r.DriftFlagged[0] != "load:memory" {
		t.Fatalf("DriftFlagged = %v, want [load:memory]", r.DriftFlagged)
	}
	if len(r.Fits) != 1 || r.Fits[0].Tier != "memory" {
		t.Fatalf("Fits = %+v, want one memory fit", r.Fits)
	}
	if r.Fits[0].BytesPerSecond <= 0 {
		t.Errorf("fitted bandwidth = %v, want > 0", r.Fits[0].BytesPerSecond)
	}
}

func TestSnapshotConcurrentWithObserve(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.ObserveLoad("memory", int64(i), time.Millisecond, time.Millisecond)
			c.ObserveCompute("op", time.Millisecond, time.Millisecond)
		}
	}()
	for i := 0; i < 50; i++ {
		_ = c.Snapshot()
	}
	close(stop)
	wg.Wait()
}

// fixtureCollector builds a collector with fixed observations so report
// renderings are deterministic.
func fixtureCollector() *Collector {
	c := NewCollector()
	for i := 1; i <= 10; i++ {
		size := int64(i * 4096)
		actual := time.Duration(i) * 50 * time.Microsecond
		c.ObserveLoad("memory", size, 4*actual, actual)
	}
	for i := 1; i <= 4; i++ {
		size := int64(i * 1 << 20)
		actual := time.Duration(i) * 3 * time.Millisecond
		c.ObserveLoad("disk", size, actual+500*time.Microsecond, actual)
	}
	c.ObserveCompute("train", 80*time.Millisecond, 100*time.Millisecond)
	c.ObserveCompute("train", 90*time.Millisecond, 100*time.Millisecond)
	c.ObserveCompute("join", 5*time.Millisecond, 4*time.Millisecond)
	sc := NewScorecard("req-fixture-01", 4, 2,
		900*time.Millisecond, 30*time.Millisecond, 250*time.Millisecond)
	sc.WallSec = 0.2
	c.RecordScorecard(sc)
	return c
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestReportGoldens(t *testing.T) {
	r := fixtureCollector().Snapshot()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.json.golden", buf.Bytes())

	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.text.golden", buf.Bytes())
}
