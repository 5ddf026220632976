package remote

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is the serving-telemetry middleware: Handler.ServeHTTP creates
// the request's obs.Request record, measures the request into per-route
// metric families on the server's obs.Registry, and emits the finished
// record once (core.Server.ObserveRequest feeds GET /v1/requests and
// GET /v1/clients; the access and slow-request log lines read the same
// record). What that costs over the bare mux dispatch is a gated count
// (TestHandlerAllocatesAtMostKOverBareMux).

// routeLabel maps a request path onto the route label vocabulary: the
// paths of the mounted routes (Handler.routes) plus "other", which every
// other path — pprof's included — collapses into, so scraping an arbitrary
// URL cannot mint metric families.
func (h *Handler) routeLabel(path string) string {
	if _, ok := h.metrics.routes[path]; ok {
		return path
	}
	return "other"
}

// statusClasses is the response-code label vocabulary; statusClass clamps
// real codes onto it.
var statusClasses = [numStatusClasses]string{"2xx", "3xx", "4xx", "5xx"}

const numStatusClasses = 4

func statusClass(code int) int {
	idx := code/100 - 2
	if idx < 0 {
		idx = 0
	}
	if idx > 3 {
		idx = 3
	}
	return idx
}

// routeInstruments bundles one route's serving metrics, pre-registered at
// handler construction so the per-request path never touches the
// registry mutex.
type routeInstruments struct {
	seconds   *obs.Histogram
	inflight  *obs.Gauge
	byClass   [numStatusClasses]*obs.Counter
	reqBytes  *obs.Counter
	respBytes *obs.Counter
}

// httpMetrics holds the per-route instruments keyed by route label.
type httpMetrics struct {
	routes map[string]*routeInstruments
}

// newHTTPMetrics registers the instruments of each distinct path and of
// "other".
func newHTTPMetrics(reg *obs.Registry, paths []string) *httpMetrics {
	m := &httpMetrics{routes: make(map[string]*routeInstruments, len(paths)+1)}
	for _, route := range append(paths, "other") {
		if m.routes[route] != nil {
			continue
		}
		ri := &routeInstruments{
			seconds: reg.Histogram(obs.Labeled("collab_http_request_seconds", "route", route),
				"end-to-end request handling latency by route", nil),
			inflight: reg.Gauge(obs.Labeled("collab_http_inflight", "route", route),
				"requests currently being handled by route"),
			reqBytes: reg.Counter(obs.Labeled("collab_http_request_bytes_total", "route", route),
				"request body bytes read by route"),
			respBytes: reg.Counter(obs.Labeled("collab_http_response_bytes_total", "route", route),
				"response body bytes written by route"),
		}
		for i, class := range statusClasses {
			ri.byClass[i] = reg.Counter(
				obs.Labeled("collab_http_requests_total", "route", route, "code", class),
				"requests served by route and status class")
		}
		m.routes[route] = ri
	}
	return m
}

// clientLabel resolves the caller's identity for per-client attribution:
// the sanitized X-Collab-Client header when present, otherwise the remote
// address host (stable per collaborator machine), otherwise "unknown". The
// attribution table bounds distinct identities itself, so an adversarially
// rotating label cannot grow it past its cap.
func clientLabel(r *http.Request) string {
	if c := obs.SanitizeID(r.Header.Get(obs.ClientIDHeader)); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return obs.SanitizeID(host)
	}
	if c := obs.SanitizeID(r.RemoteAddr); c != "" {
		return c
	}
	return "unknown"
}

// countingReader counts request body bytes actually read by the handler
// (Content-Length lies for chunked encodings and is absent on GETs).
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// WithSlowRequestWarn logs a slog warning for any request slower than
// threshold (0, the default, disables the warning). Requires a handler
// logger.
func WithSlowRequestWarn(threshold time.Duration) HandlerOption {
	return func(h *Handler) { h.slowWarn = threshold }
}

// healthz is the liveness probe: the process is up and the handler
// reachable. Always 200 — readiness is /readyz's job.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyz is the readiness probe: 200 once the server can serve traffic
// (core.Server.Ready: store attached, profile loaded), 503 with the reason
// otherwise.
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := h.srv.Ready(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %v\n", err)
		return
	}
	fmt.Fprintln(w, "ready")
}

// statusWriter captures the response status and body size for the request
// record.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler. It is the edge where the request's
// record is created — ID resolved (X-Collab-Request through the same
// sanitizer as X-Collab-Client, a fresh ID when nothing usable is left) and
// echoed on the response, route and caller labelled — and, once the mux has
// dispatched it to the handler that passes it on to the server, finished
// (status, wall time, bytes) and emitted: into the per-route metrics and the
// server's flight ring and client table, and onto the access log.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := &obs.Request{
		RequestID: obs.SanitizeID(r.Header.Get(obs.RequestIDHeader)),
		Client:    clientLabel(r),
		Method:    r.Method,
		Route:     h.routeLabel(r.URL.Path),
	}
	if req.RequestID == "" {
		req.RequestID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, req.RequestID)
	r = r.WithContext(context.WithValue(r.Context(), reqKey{}, req))
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	body := &countingReader{rc: r.Body}
	r.Body = body
	ri := h.metrics.routes[req.Route]
	ri.inflight.Add(1)
	timer := obs.StartTimer()
	h.mux.ServeHTTP(sw, r)
	elapsed := timer.Elapsed()
	req.Status = sw.status
	req.StartUnixNano = timer.StartedAt().UnixNano()
	req.WallNanos = elapsed.Nanoseconds()
	req.BytesIn = body.n
	req.BytesOut = sw.bytes
	ri.inflight.Add(-1)
	ri.seconds.Observe(elapsed.Seconds())
	ri.byClass[statusClass(req.Status)].Inc()
	ri.reqBytes.Add(req.BytesIn)
	ri.respBytes.Add(req.BytesOut)
	h.srv.ObserveRequest(req)
	if h.log == nil {
		return
	}
	attrs := []any{
		slog.String(obs.RequestIDKey, req.RequestID),
		slog.String("method", req.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", req.Status),
		slog.Duration("elapsed", elapsed),
	}
	if req.Vertices > 0 { // an optimize or update: the facts core wrote into the record
		attrs = append(attrs,
			slog.Int("vertices", req.Vertices),
			slog.Int("frontier", req.Frontier),
			slog.Int("reused", req.Reused),
			slog.Int("computes", req.Computes),
			slog.Int("warmstarts", req.Warmstarts),
			slog.Int64("plan_ns", req.PlanNanos),
			slog.Int64("lock_wait_ns", req.LockWaitNanos),
			slog.Int64("mat_ns", req.MatNanos))
	}
	h.log.Info("http", attrs...)
	if h.slowWarn > 0 && elapsed > h.slowWarn {
		h.log.Warn("slow request", append(attrs, slog.Duration("threshold", h.slowWarn))...)
	}
}
