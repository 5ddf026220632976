package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/store"
)

func TestRouteLabelBoundsCardinality(t *testing.T) {
	h := NewHandler(core.NewServer(store.New(cost.Memory())), WithPprof(true))
	cases := map[string]string{
		"/v1/optimize":       "/v1/optimize",
		"/metrics":           "/metrics",
		"/healthz":           "/healthz",
		"/v1/unknown":        "other",
		"/debug/pprof/heap":  "other",
		"/":                  "other",
		"/v1/optimize/extra": "other",
	}
	for path, want := range cases {
		if got := h.routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestRouteTableLabelsEveryMountedPath: the mux serves every pattern of the
// route table, every mounted path is its own label, and every label but
// "other" is a mounted path — the two cannot drift apart.
func TestRouteTableLabelsEveryMountedPath(t *testing.T) {
	h := NewHandler(core.NewServer(store.New(cost.Memory())))
	mounted := map[string]bool{}
	for _, r := range h.routes() {
		method, path, _ := strings.Cut(r.pattern, " ")
		if _, pattern := h.mux.Handler(httptest.NewRequest(method, path, nil)); pattern != r.pattern {
			t.Errorf("%s %s dispatches to pattern %q, want %q", method, path, pattern, r.pattern)
		}
		if got := h.routeLabel(path); got != path {
			t.Errorf("mounted path %s is labelled %q", path, got)
		}
		mounted[path] = true
	}
	for label := range h.metrics.routes {
		if label != "other" && !mounted[label] {
			t.Errorf("label %s names no mounted route", label)
		}
	}
	if h.metrics.routes["other"] == nil || len(h.metrics.routes) != len(mounted)+1 {
		t.Errorf("%d labels for %d mounted paths, want one more for other", len(h.metrics.routes), len(mounted))
	}
}

func TestStatusClassClamps(t *testing.T) {
	cases := map[int]string{
		200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx",
		100: "2xx", // informational clamps low
		700: "5xx", // out-of-range clamps high
	}
	for code, want := range cases {
		if got := statusClasses[statusClass(code)]; got != want {
			t.Errorf("statusClass(%d) = %s, want %s", code, got, want)
		}
	}
}

// TestMiddlewareMetrics runs a real workload through the handler and checks
// the per-route families show up in the exposition with sane values.
func TestMiddlewareMetrics(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	client := core.NewClient(rc)
	if _, err := client.Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`collab_http_requests_total{route="/v1/optimize",code="2xx"} 1`,
		`collab_http_requests_total{route="/v1/update",code="2xx"} 1`,
		`collab_http_request_seconds_count{route="/v1/optimize"} 1`,
		`collab_http_inflight{route="/v1/optimize"} 0`,
		"# TYPE collab_http_request_seconds histogram",
		"# TYPE collab_http_requests_total counter",
		"collab_build_info{",
		"collab_uptime_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Gob bodies flow both ways on optimize: bytes counted in and out.
	for _, family := range []string{
		`collab_http_request_bytes_total{route="/v1/optimize"}`,
		`collab_http_response_bytes_total{route="/v1/optimize"}`,
	} {
		idx := strings.Index(out, family)
		if idx < 0 {
			t.Errorf("exposition missing %q", family)
			continue
		}
		line := out[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(family):], "%f", &v); err != nil || v <= 0 {
			t.Errorf("%s = %q, want positive count", family, line)
		}
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()))
	h := NewHandler(srv)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 ok", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("healthz Content-Type = %q", ct)
	}
}

// TestReadyzAsksTheServer: /readyz is core.Server.Ready over HTTP — 200 for
// a server that can serve, 503 with Ready's reason for one whose store has
// no cost profile loaded.
func TestReadyzAsksTheServer(t *testing.T) {
	h := NewHandler(core.NewServer(store.New(cost.Memory())))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "ready\n" {
		t.Fatalf("readyz = %d %q, want 200 ready", w.Code, w.Body.String())
	}

	unpriced := NewHandler(core.NewServer(store.New(cost.Profile{Name: "unloaded"})))
	w = httptest.NewRecorder()
	unpriced.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz of a zero-bandwidth store = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "zero bandwidth") {
		t.Errorf("503 body should carry the reason: %q", w.Body.String())
	}
}

// TestRequestsEndpoint drives a workload and asserts /v1/requests returns
// summaries matching what was actually served, filters included.
func TestRequestsEndpoint(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	client := core.NewClient(rc)
	if _, err := client.Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(rc.base + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/requests = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var export struct {
		Count    int           `json:"count"`
		Requests []obs.Request `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	if export.Count == 0 || len(export.Requests) != export.Count {
		t.Fatalf("export count=%d len=%d", export.Count, len(export.Requests))
	}
	var sawOptimize, sawUpdate bool
	for _, s := range export.Requests {
		if s.WallNanos <= 0 || s.Status == 0 || s.Method == "" {
			t.Errorf("incomplete summary: %+v", s)
		}
		switch s.Route {
		case "/v1/optimize":
			sawOptimize = true
			if s.Vertices == 0 {
				t.Errorf("optimize summary missing plan annotation: %+v", s)
			}
		case "/v1/update":
			sawUpdate = true
		}
	}
	if !sawOptimize || !sawUpdate {
		t.Fatalf("flight log missing optimize(%v)/update(%v) entries", sawOptimize, sawUpdate)
	}

	// Route filter narrows to that route only.
	resp2, err := http.Get(rc.base + "/v1/requests?route=/v1/optimize&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var filtered struct {
		Requests []obs.Request `json:"requests"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Requests) != 1 || filtered.Requests[0].Route != "/v1/optimize" {
		t.Fatalf("filtered requests = %+v", filtered.Requests)
	}

	// Bad filter values are 400s, not silent full dumps.
	for _, q := range []string{"?min=banana", "?limit=-3"} {
		r3, err := http.Get(rc.base + "/v1/requests" + q)
		if err != nil {
			t.Fatal(err)
		}
		r3.Body.Close()
		if r3.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/requests%s = %d, want 400", q, r3.StatusCode)
		}
	}
}

func TestRequestsEndpointDisabled(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithFlightRecorder(nil))
	h := NewHandler(srv)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/requests", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled /v1/requests = %d, want 404", w.Code)
	}
}

// TestGETContentTypes asserts every GET route declares an explicit
// Content-Type (the satellite contract: scrapers and browsers never sniff).
func TestGETContentTypes(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithBudget(1<<30),
		core.WithExplain(true),
	)
	ts := httptest.NewServer(NewHandler(srv, WithPprof(false)))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	client := core.NewClient(rc)
	if _, err := client.Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}
	artifactID := srv.Store.StoredIDs()[0]

	cases := []struct {
		path string
		want string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/v1/stats", "application/json"},
		{"/v1/requests", "application/json"},
		{"/v1/calibration", "application/json"},
		{"/v1/calibration?format=text", "text/plain; charset=utf-8"},
		{"/v1/explain", "application/json"},
		{"/v1/explain?format=text", "text/plain; charset=utf-8"},
		{"/v1/explain?format=dot", "text/vnd.graphviz"},
		{"/v1/artifact?id=" + artifactID, "application/octet-stream"},
		{"/v1/clients", "application/json"},
		{"/v1/clients?format=text", "text/plain; charset=utf-8"},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/readyz", "text/plain; charset=utf-8"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", c.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != c.want {
			t.Errorf("GET %s Content-Type = %q, want %q", c.path, got, c.want)
		}
	}
}

// TestSlowRequestWarning pins the slow-request log line: present above the
// threshold, absent below it.
func TestSlowRequestWarning(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()))
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := NewHandler(srv, WithHandlerLogger(logger))
	h.slowWarn = time.Nanosecond
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(buf.String(), "slow request") {
		t.Errorf("expected slow-request warning with 1ns threshold, log:\n%s", buf.String())
	}

	buf.Reset()
	h2 := NewHandler(srv, WithHandlerLogger(logger))
	h2.slowWarn = time.Hour
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if strings.Contains(buf.String(), "slow request") {
		t.Errorf("unexpected slow-request warning with 1h threshold, log:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "msg=http") {
		t.Errorf("access log line missing, log:\n%s", buf.String())
	}
}

// TestAccessLogCarriesThePlanFacts: a request is logged once, by the edge,
// and the optimize and update lines carry what the request record holds of the
// plan; a plain transport request carries none of it.
func TestAccessLogCarriesThePlanFacts(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()))
	var buf bytes.Buffer
	h := NewHandler(srv, WithHandlerLogger(slog.New(slog.NewTextHandler(&buf, nil))))
	ts := httptest.NewServer(h)
	rc := NewClient(ts.URL, cost.Memory())
	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	ts.Close() // every handler has returned: the buffer is complete
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))

	facts := []string{" vertices=", " frontier=", " reused=", " computes=", " warmstarts=", " plan_ns=", " lock_wait_ns=", " mat_ns="}
	lines := map[string]int{} // per path
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(line, "level=INFO msg=http "+obs.RequestIDKey+"=") {
			t.Errorf("not an access-log line: %s", line)
			continue
		}
		_, path, _ := strings.Cut(line, " path=")
		path, _, _ = strings.Cut(path, " ")
		lines[path]++
		planned := path == "/v1/optimize" || path == "/v1/update"
		for _, f := range facts {
			if strings.Contains(line, f) != planned {
				t.Errorf("field%s present=%v, want %v: %s", f, !planned, planned, line)
			}
		}
		if path == "/v1/update" && strings.Contains(line, " mat_ns=0") {
			t.Errorf("the update's line carries no materialization time: %s", line)
		}
	}
	// One run is one optimize and one update, each logged once.
	if lines["/v1/optimize"] != 1 || lines["/v1/update"] != 1 || lines["/healthz"] != 1 || lines["/v1/artifact"] == 0 {
		t.Errorf("lines per path = %v, want one optimize, one update, one healthz and the uploads:\n%s", lines, buf.String())
	}
}

// handlerArm is one arm of the middleware's cost: serve answers one
// GET /healthz that carries its own request ID.
type handlerArm struct {
	name  string
	serve func()
}

// handlerArms are the edge with the serving telemetry absent and present.
// Absent is a reference written out here: what ServeHTTP does for every
// request — the record, its ID echoed on the response, the context that
// carries it to the route — and then the mux.
func handlerArms() []handlerArm {
	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set(obs.RequestIDHeader, "bench")
	h := NewHandler(core.NewServer(store.New(cost.Memory())))
	return []handlerArm{
		{"absent", func() {
			w := httptest.NewRecorder()
			req := &obs.Request{RequestID: r.Header.Get(obs.RequestIDHeader), Method: r.Method, Route: h.routeLabel(r.URL.Path)}
			w.Header().Set(obs.RequestIDHeader, req.RequestID)
			h.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		}},
		{"enabled", func() { h.ServeHTTP(httptest.NewRecorder(), r) }},
	}
}

// BenchmarkHandlerOverhead times handlerArms: enabled must stay within the
// same order of magnitude as absent.
func BenchmarkHandlerOverhead(b *testing.B) {
	for _, arm := range handlerArms() {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.serve()
			}
		})
	}
}

// TestHandlerAllocatesAtMostKOverBareMux gates BenchmarkHandlerOverhead with
// a count instead of a timing: the serving telemetry — status writer, body
// counter, client label, flight record — costs at most k allocations per
// request on top of the request-ID plumbing and the mux. k is what it cost
// when the option to switch the telemetry off was removed.
func TestHandlerAllocatesAtMostKOverBareMux(t *testing.T) {
	const k = 4
	allocs := map[string]float64{}
	for _, arm := range handlerArms() {
		allocs[arm.name] = testing.AllocsPerRun(100, arm.serve)
	}
	t.Logf("allocations per GET /healthz: %v", allocs)
	if allocs["enabled"] > allocs["absent"]+k {
		t.Errorf("the instrumented edge costs %.0f allocations per request, the bare plumbing %.0f: more than %d on top",
			allocs["enabled"], allocs["absent"], k)
	}
}
