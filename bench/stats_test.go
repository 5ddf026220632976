package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest quotable percentile is the one that still has ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {600, 95}, {1000, 99}, {1500, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	short := make([]float64, 150)
	if !math.IsNaN(p95(short)) {
		t.Errorf("p95 of 150 samples should be absent: only 7 lie beyond it")
	}
	long := make([]float64, 400)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if got := p95(long); got != 380 {
		t.Errorf("p95 of 1..400 = %v, want 380", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be absent")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestScrapeParsersAndDeltas(t *testing.T) {
	prom := func(text string) scrape { return scrape{prom: parseProm(strings.NewReader(text))} }
	before := prom(`# HELP collab_store_puts_total artifacts admitted
# TYPE collab_store_puts_total counter
collab_store_puts_total 5
collab_http_request_seconds_sum{route="/v1/update"} 0.25
collab_store_logical_bytes 2.0001564e+07
`)
	after := prom(`collab_store_puts_total 12
collab_http_request_seconds_sum{route="/v1/update"} 1.5
`)
	d := scrapeDelta{before: before, after: after}
	if got := d.counter("collab_store_puts_total"); got != 7 {
		t.Errorf("puts delta = %v, want 7", got)
	}
	if got := d.counter(`collab_http_request_seconds_sum{route="/v1/update"}`); got != 1.25 {
		t.Errorf("labelled delta = %v, want 1.25", got)
	}
	if got := before.gauge("collab_store_logical_bytes"); got != 2.0001564e+07 {
		t.Errorf("exponent value = %v", got)
	}
	// A family a later change renamed away yields an absent metric.
	if got := d.counter("collab_store_logical_bytes"); !math.IsNaN(got) {
		t.Errorf("family missing from one scrape = %v, want absent", got)
	}
	if got := d.counter("collab_no_such_family"); !math.IsNaN(got) {
		t.Errorf("unknown family = %v, want absent", got)
	}
	if got := shown(d.counter("collab_no_such_family")); got != -1 {
		t.Errorf("absent is printed as %v, want -1", got)
	}

	stats := func(text string) scrape { return scrape{stats: flattenJSON(strings.NewReader(text))} }
	sd := scrapeDelta{
		before: stats(`{"MatTime": 1000000, "Version": "v1", "Pool": {"calls": 3}, "LastRun": null}`),
		after:  stats(`{"MatTime": 4500000, "Version": "v1", "Pool": {"calls": 10}}`),
	}
	if got := sd.counter("MatTime"); got != 3.5e6 {
		t.Errorf("MatTime delta = %v", got)
	}
	if got := sd.counter("Pool.calls"); got != 7 {
		t.Errorf("nested delta = %v", got)
	}
	if got := sd.counter("LockWaitSec"); !math.IsNaN(got) {
		t.Errorf("absent stats field = %v, want absent", got)
	}
	if got := ratio(1, 0); !math.IsNaN(got) {
		t.Errorf("ratio over zero = %v, want absent", got)
	}
}

func at(msStart, msEnd int) (time.Duration, time.Duration) {
	return time.Duration(msStart) * time.Millisecond, time.Duration(msEnd) * time.Millisecond
}

func mkSpan(name string, parent, msStart, msEnd int) span {
	s, e := at(msStart, msEnd)
	return span{name: name, parent: parent, start: s, end: e, status: 200}
}

func TestSelfTime(t *testing.T) {
	run := mkSpan("run", -1, 0, 100)
	children := []span{
		mkSpan("optimize", 0, 5, 15),
		mkSpan("fetch", 0, 20, 40),   // two parallel fetches overlap:
		mkSpan("fetch", 0, 30, 50),   // together they cover 20..50
		mkSpan("update", 0, 90, 120), // clipped to the parent's end
	}
	if got, want := selfTime(run, children), 50*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(run, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v", got)
	}
}

func TestClientSelf(t *testing.T) {
	// One run of 100 ms: optimize 10, a warmstart donor fetch 5 (before
	// Execute), Execute 40 of which one executor fetch takes 20, update
	// 10, upload 15. Outside Execute and HTTP: 100-40-10-5-10-15 = 20.
	spans := []span{
		mkSpan("run", -1, 0, 100),
		mkSpan("optimize", 0, 2, 12),
		mkSpan("fetch", 0, 13, 18),
		mkSpan("fetch", 0, 25, 45),
		mkSpan("update", 0, 65, 75),
		mkSpan("upload", 0, 80, 95),
	}
	runs := []runRec{{span: 0, execWall: 40 * time.Millisecond, reused: 1}}
	if got, want := clientSelf(spans, runs), 20*time.Millisecond; got != want {
		t.Errorf("clientSelf = %v, want %v", got, want)
	}
	// Set-up runs carry run id -1 and are not part of the phase.
	spans[0].run = -1
	if got := clientSelf(spans, runs); got != 0 {
		t.Errorf("clientSelf of a set-up run = %v, want 0", got)
	}
}

func TestHostClockFactor(t *testing.T) {
	h := &hostClock{ref: newReference()}
	if f := h.factor(); !math.IsNaN(f) {
		t.Errorf("factor with no burst = %v, want absent", f)
	}
	took := h.burst(2) + h.burst(3)
	if h.units != 5 || h.took != took {
		t.Fatalf("after bursts of 2 and 3: %d units in %v, want 5 in %v", h.units, h.took, took)
	}
	if want := took.Seconds() / (5 * unitNominal.Seconds()); h.factor() != want {
		t.Errorf("factor = %v, want %v", h.factor(), want)
	}
}
