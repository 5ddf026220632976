package obs

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	var tr *Trace
	tr.Span("x", "c", 0, timeNowForTest(), 0, nil)
	tr.Instant("y", "c", 0, nil)
	if tr.Len() != 0 {
		t.Fatal("nil trace should record nothing")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestRegistryReuseAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("dup_total", "")
	c2 := r.Counter("dup_total", "")
	if c1 != c2 {
		t.Fatal("same-name counter should return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("dup_total", "")
}

// TestPrometheusFormat checks the rendered exposition against the text
// format grammar line by line: every non-comment line is
// `name{labels}? value` and every TYPE line names a known metric type.
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("collab_requests_total", "total requests").Add(3)
	r.Gauge("collab_queue_depth", "queued items").Set(2.5)
	r.GaugeFunc("collab_dynamic", "computed at scrape", func() float64 { return 7 })
	h := r.Histogram("collab_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$`)
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			if !typeLine.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		default:
			if !sample.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
		}
	}

	for _, want := range []string{
		"collab_requests_total 3",
		"collab_queue_depth 2.5",
		"collab_dynamic 7",
		`collab_latency_seconds_bucket{le="0.01"} 1`,
		`collab_latency_seconds_bucket{le="1"} 2`,
		`collab_latency_seconds_bucket{le="+Inf"} 3`,
		"collab_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if h.Sum() != 5.505 {
		t.Errorf("histogram sum = %g, want 5.505", h.Sum())
	}
}

func TestPrometheusOutputStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "").Inc()
	r.Counter("a_total", "").Inc()
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("renders of unchanged state differ")
	}
	if strings.Index(b1.String(), "a_total") > strings.Index(b1.String(), "z_total") {
		t.Fatal("output not sorted by metric name")
	}
}

func TestInvalidMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name should panic")
		}
	}()
	NewRegistry().Counter("bad name", "")
}

func TestLabeledNameBuilder(t *testing.T) {
	got := Labeled("http_requests_total", "route", "/v1/optimize", "code", "2xx")
	want := `http_requests_total{route="/v1/optimize",code="2xx"}`
	if got != want {
		t.Errorf("Labeled = %q, want %q", got, want)
	}
	esc := Labeled("m", "k", "a\"b\\c\nd")
	if esc != `m{k="a\"b\\c\nd"}` {
		t.Errorf("escaping wrong: %q", esc)
	}
	for _, bad := range [][]string{{"route"}, {"bad name", "v"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Labeled(%v) should panic", bad)
				}
			}()
			Labeled("m", bad...)
		}()
	}
}

// TestLabeledFamilyRendering checks that labeled members of one family
// render under a single HELP/TYPE header, counters and histograms alike,
// with histogram bucket labels merged with le.
func TestLabeledFamilyRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled("fam_total", "route", "/a"), "family help").Add(1)
	r.Counter(Labeled("fam_total", "route", "/b"), "family help").Add(2)
	h := r.Histogram(Labeled("fam_seconds", "route", "/a"), "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	r.Gauge(Labeled("fam_inflight", "route", "/a"), "inflight").Set(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE fam_total counter"); n != 1 {
		t.Errorf("TYPE fam_total appears %d times, want once:\n%s", n, out)
	}
	if n := strings.Count(out, "# HELP fam_total "); n != 1 {
		t.Errorf("HELP fam_total appears %d times, want once:\n%s", n, out)
	}
	for _, want := range []string{
		`fam_total{route="/a"} 1`,
		`fam_total{route="/b"} 2`,
		`fam_seconds_bucket{route="/a",le="0.1"} 1`,
		`fam_seconds_bucket{route="/a",le="+Inf"} 2`,
		`fam_seconds_sum{route="/a"} 0.55`,
		`fam_seconds_count{route="/a"} 2`,
		`fam_inflight{route="/a"} 3`,
		"# TYPE fam_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Same registration name returns the same instrument (idempotent).
	if c := r.Counter(Labeled("fam_total", "route", "/a"), ""); c.Value() != 1 {
		t.Error("re-registering a labeled counter should return the existing instrument")
	}
	// Members sort by label block within the family, byte-stably.
	if strings.Index(out, `fam_total{route="/a"}`) > strings.Index(out, `fam_total{route="/b"}`) {
		t.Error("family members not sorted by label block")
	}
}
