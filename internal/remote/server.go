package remote

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Handler wraps a core.Server with the HTTP protocol. Mount it on any mux.
//
// Every request is tagged with a request ID — the client-sent
// X-Collab-Request header when present, a freshly minted ID otherwise —
// which is echoed on the response header, passed to the server's
// correlated Optimize/Update variants, and attached to the per-request
// access log line (when a logger is configured).
type Handler struct {
	srv *core.Server
	mux *http.ServeMux
	log *slog.Logger
	// Serving telemetry (middleware.go): per-route metric families, the
	// flight-recorder feed, and the slow-request warning. instrument
	// defaults to on; metrics stays nil when it is switched off.
	instrument bool
	metrics    *httpMetrics
	slowWarn   time.Duration
	readyCheck func() error
}

// HandlerOption configures the HTTP façade.
type HandlerOption func(*Handler)

// WithHandlerLogger attaches a structured access logger: one slog line per
// request with method, path, status, duration, and request ID. Nil (the
// default) disables access logging.
func WithHandlerLogger(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.log = l }
}

// WithPprof mounts net/http/pprof's profiling handlers under /debug/pprof/
// — CPU, heap, goroutine, and friends — for debugging a live server.
// Off by default: the endpoints expose internals and cost CPU when
// scraped, so deployments opt in (collabd's -pprof flag).
func WithPprof(enabled bool) HandlerOption {
	return func(h *Handler) {
		if !enabled {
			return
		}
		h.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		h.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// NewHandler builds the HTTP façade over a server.
func NewHandler(srv *core.Server, opts ...HandlerOption) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux(), instrument: true}
	h.mux.HandleFunc("POST /v1/optimize", h.optimize)
	h.mux.HandleFunc("POST /v1/update", h.update)
	h.mux.HandleFunc("GET /v1/artifact", h.getArtifact)
	h.mux.HandleFunc("POST /v1/artifact", h.putArtifact)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/calibration", h.calibration)
	h.mux.Handle("GET /metrics", srv.Metrics().Handler())
	h.mux.HandleFunc("GET /v1/trace", h.trace)
	h.mux.HandleFunc("GET /v1/explain", h.explain)
	h.mux.HandleFunc("GET /v1/requests", h.requests)
	h.mux.HandleFunc("GET /v1/clients", h.clients)
	h.mux.HandleFunc("GET /v1/critpath", h.critpath)
	h.mux.HandleFunc("GET /v1/artifacts", h.artifacts)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	for _, o := range opts {
		o(h)
	}
	if h.instrument {
		h.metrics = newHTTPMetrics(srv.Metrics())
	}
	return h
}

// ridKey carries the request ID through the request context.
type ridKey struct{}

// requestID extracts the correlation ID the middleware stored.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridKey{}).(string)
	return id
}

// statusWriter captures the response status and body size for the access
// log, the serving metrics, and the flight recorder.
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

// ServeHTTP implements http.Handler: it resolves the request ID, echoes it
// on the response, and — unless instrumentation is disabled — measures the
// request into the serving metrics and the flight recorder
// (serveInstrumented in middleware.go).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(obs.RequestIDHeader)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, rid)
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
	if h.instrument {
		h.serveInstrumented(w, r, rid)
		return
	}
	if h.log == nil {
		h.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	timer := obs.StartTimer()
	h.mux.ServeHTTP(sw, r)
	h.log.Info("http",
		slog.String(obs.RequestIDKey, rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("elapsed", timer.Elapsed()))
}

func (h *Handler) optimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decodeBody(w, r, maxMetaBody, &req) {
		return
	}
	dag := FromWire(req.Nodes)
	opt := h.srv.OptimizeReq(dag, requestID(r))
	resp := OptimizeResponse{Warmstarts: opt.Warmstarts, Overhead: opt.Overhead}
	for id := range opt.Plan.Reuse {
		resp.ReuseIDs = append(resp.ReuseIDs, id)
	}
	// Map iteration order is random; sort so responses are byte-stable.
	sort.Strings(resp.ReuseIDs)
	if len(opt.Plan.PredictedLoad) > 0 {
		resp.PredictedLoadSec = make([]float64, len(resp.ReuseIDs))
		for i, id := range resp.ReuseIDs {
			resp.PredictedLoadSec[i] = opt.Plan.PredictedLoad[id]
		}
	}
	writeGob(w, &resp)
}

func (h *Handler) update(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !decodeBody(w, r, maxMetaBody, &req) {
		return
	}
	dag := FromWire(req.Nodes)
	// The run summary must land before the update: the server folds it into
	// the scorecard it builds while folding the executed DAG into the EG.
	if req.Run != nil {
		h.srv.ReportRun(*req.Run, requestID(r))
	}
	resp := UpdateResponse{WantContent: h.srv.UpdateMetaReq(dag, requestID(r))}
	wanted := make(map[string]int, len(resp.WantContent))
	for i, id := range resp.WantContent {
		wanted[id] = i
	}
	for _, wn := range req.Nodes {
		// Record column lineage (dedup accounting) and model kinds (warmstart
		// donor matching), which travel outside the artifact content.
		if len(wn.Columns) > 0 {
			h.srv.EG.RecordColumns(wn.ID, wn.Columns, wn.ColSizes)
		}
		if wn.TrainedKind != "" {
			h.srv.EG.RecordMeta(wn.ID, "model", wn.TrainedKind)
		}
		// Tell the client which columns of a wanted dataset to leave out.
		// The answer may be stale by the time the upload arrives; the upload
		// handler checks again.
		if i, ok := wanted[wn.ID]; ok && len(wn.Columns) > 0 {
			if held := h.srv.Store.HeldColumns(wn.Columns); len(held) > 0 {
				if resp.Have == nil {
					resp.Have = make([][]int, len(resp.WantContent))
				}
				resp.Have[i] = held
			}
		}
	}
	writeGob(w, &resp)
}

func (h *Handler) getArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	// Peek, don't Get: serving a collaborator must not promote the artifact
	// into the memory tier or disturb the LRU order — a cold artifact
	// streams straight from the disk tier.
	content, tier := h.srv.PeekArtifact(id)
	if content == nil {
		http.Error(w, "artifact not found", http.StatusNotFound)
		return
	}
	w.Header().Set(TierHeader, tier.String())
	env := artifactEnvelope{Content: content}
	writeGob(w, &env)
}

func (h *Handler) putArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	var up artifactUpload
	if !decodeBody(w, r, maxArtifactBody, &up) {
		return
	}
	var err error
	manifest := len(up.ColIDs)+len(up.Names)+len(up.Columns) > 0
	switch {
	case up.Blob.Content != nil && !manifest:
		// Datasets have one upload shape, the manifest; only a frame without
		// columns has nothing to put in one.
		if ds, ok := up.Blob.Content.(*graph.DatasetArtifact); ok && ds.Frame != nil && ds.Frame.NumCols() > 0 {
			http.Error(w, "dataset content must be uploaded as a manifest", http.StatusBadRequest)
			return
		}
		err = h.srv.PutArtifactReq(id, up.Blob.Content, requestID(r))
	case up.Blob.Content == nil && manifest:
		err = h.srv.PutFrameRefReq(id, up.ColIDs, up.Names, up.Columns, requestID(r))
	default:
		http.Error(w, "upload must carry either a blob or a dataset manifest", http.StatusBadRequest)
		return
	}
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, store.ErrColumnAbsent):
		// The client left out a column the store has since lost (evicted by
		// another client's update); it retries with every column.
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, store.ErrBadManifest):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	plan, mat := h.srv.Timings()
	st := Stats{
		Vertices:           h.srv.EG.Len(),
		Materialized:       len(h.srv.EG.MaterializedIDs()),
		PhysicalBytes:      h.srv.Store.PhysicalBytes(),
		LogicalBytes:       h.srv.Store.LogicalBytes(),
		MemoryBytes:        h.srv.Store.MemoryBytes(),
		DiskBytes:          h.srv.Store.DiskBytes(),
		PlanTime:           plan,
		MatTime:            mat,
		OptimizeCount:      h.srv.OptimizeCount(),
		UpdateCount:        h.srv.UpdateCount(),
		ReusePlanned:       h.srv.ReusePlanned(),
		WarmstartsProposed: h.srv.WarmstartsProposed(),
		UptimeSeconds:      h.srv.UptimeSeconds(),
		LockWaitSec:        h.srv.LockWaitSeconds(),
		LockHoldSec:        h.srv.LockHoldSeconds(),
		StoreLockWaitSec:   h.srv.StoreLockWaitSeconds(),
		Pool:               parallel.ReadStats(),
	}
	st.MemoryArtifacts, st.DiskArtifacts = h.srv.Store.TierCounts()
	st.Version, st.GoVersion = h.srv.BuildInfo()
	st.PlanPrunedOffPath, st.PlanPrunedByCost, st.PlanPrunedNotMaterialized = h.srv.PlanPruned()
	if led := h.srv.ArtifactLedger(); led.Enabled() {
		st.ArtifactsTracked, st.ArtifactSavedSec, st.ArtifactRentSec, st.ArtifactNetSec = led.Totals()
	}
	if c := h.srv.Calibration(); c != nil {
		st.Runs = c.Runs()
		total, last := c.WallSeconds()
		st.RunWallTime = secondsToDuration(total)
		st.LastRunWallTime = secondsToDuration(last)
		for _, tier := range c.LoadTiers() {
			st.CalibLoadObs += c.LoadObservations(tier)
		}
		st.CalibComputeObs = c.ComputeObservations()
		st.EstimatedSavedSec = c.EstimatedSavedSeconds()
		st.LastSpeedup = c.LastSpeedup()
		st.MaxDriftFamily, st.MaxDrift = c.MaxDrift()
		st.LastRun = c.LastScorecard()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// calibration serves the calibration report. Query parameters:
//
//	format=json|text  rendering (default json, byte-stable for a given
//	                  collector state)
func (h *Handler) calibration(w http.ResponseWriter, r *http.Request) {
	report := h.srv.Calibration().Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = report.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = report.WriteText(w)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// explain serves the most recent decision record. Query parameters:
//
//	kind=optimize|update  which record (default optimize)
//	format=json|text|dot  rendering (default json)
//	target=eg             with format=dot, render the whole Experiment
//	                      Graph annotated with costs instead of a record
//
// 404 unless the server was started with explain capture enabled
// (core.WithExplain) and at least one matching record exists.
func (h *Handler) explain(w http.ResponseWriter, r *http.Request) {
	rec := h.srv.Explain()
	if !rec.Enabled() {
		http.Error(w, "explain disabled on this server", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if q.Get("target") == "eg" {
		if format != "dot" {
			http.Error(w, "target=eg requires format=dot", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		explain.WriteEGDOT(h.srv.EG, w)
		return
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = explain.KindOptimize
	}
	record := rec.Last(kind)
	if record == nil {
		http.Error(w, "no explain record of kind "+kind, http.StatusNotFound)
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = record.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		record.WriteText(w)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		record.WriteDOT(w)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// trace serves the server-side timeline as Chrome trace_event JSON, ready
// for chrome://tracing or Perfetto. 404 unless the server was started
// with tracing enabled (core.WithTracing).
func (h *Handler) trace(w http.ResponseWriter, _ *http.Request) {
	tr := h.srv.Trace()
	if tr == nil {
		http.Error(w, "tracing disabled on this server", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChrome(w)
}

// clients serves the per-client attribution table. Query parameters:
//
//	format=json|text  rendering (default json, byte-stable for a given
//	                  table state)
//
// 404 when the server runs with client attribution disabled.
func (h *Handler) clients(w http.ResponseWriter, r *http.Request) {
	ct := h.srv.Clients()
	if !ct.Enabled() {
		http.Error(w, "client attribution disabled on this server", http.StatusNotFound)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = ct.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ct.WriteText(w)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// artifacts serves the artifact lifecycle ledger: per-artifact event
// history plus storage economics (reuse counts, realized savings, rent,
// net benefit). Query parameters:
//
//	sort=net|saved|rent|reuse|bytes|id  ordering (default net benefit,
//	                                    descending; id ascending)
//	top=10            keep only the first N artifacts after sorting
//	id=<vertex id>    keep only this artifact
//	format=json|text  rendering (default json, byte-stable for a given
//	                  ledger state; text adds top-saver/top-waster lists)
//
// 404 when the server runs with the artifact ledger disabled.
func (h *Handler) artifacts(w http.ResponseWriter, r *http.Request) {
	led := h.srv.ArtifactLedger()
	if !led.Enabled() {
		http.Error(w, "artifact ledger disabled on this server", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	query := obs.ArtifactQuery{SortBy: q.Get("sort"), ID: q.Get("id")}
	if !obs.ValidArtifactSort(query.SortBy) {
		http.Error(w, "unknown sort "+query.SortBy, http.StatusBadRequest)
		return
	}
	if top := q.Get("top"); top != "" {
		n, err := strconv.Atoi(top)
		if err != nil || n < 0 {
			http.Error(w, "bad top "+top, http.StatusBadRequest)
			return
		}
		query.Top = n
	}
	switch format := q.Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = led.WriteJSON(w, query)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		led.WriteText(w, query)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// critpath analyzes the server-side trace buffer's critical path. Query
// parameters:
//
//	request=<id>      restrict to spans tagged with this request ID
//	format=json|text  rendering (default json, byte-stable for a given
//	                  trace state)
//	top=5             how many top contributors to list
//
// 404 unless tracing is enabled; also 404 when a request filter matches no
// spans (the request was never traced, or its spans were dropped).
func (h *Handler) critpath(w http.ResponseWriter, r *http.Request) {
	tr := h.srv.Trace()
	if tr == nil {
		http.Error(w, "tracing disabled on this server", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	topK := obs.DefaultCritPathTopK
	if top := q.Get("top"); top != "" {
		n, err := strconv.Atoi(top)
		if err != nil || n < 0 {
			http.Error(w, "bad top "+top, http.StatusBadRequest)
			return
		}
		topK = n
	}
	request := q.Get("request")
	rep := obs.AnalyzeCritPath(tr.Events(), request, topK)
	if request != "" && rep.Spans == 0 {
		http.Error(w, "no trace spans for request "+request, http.StatusNotFound)
		return
	}
	switch format := q.Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = rep.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// decodeBody gob-decodes a request body of at most limit bytes into v. It
// answers 413 for a larger body and 400 for one that does not decode, and
// reports whether the handler may go on.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
	}
	return false
}

func writeGob(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
