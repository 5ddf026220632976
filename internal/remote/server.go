package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Handler wraps a core.Server with the HTTP protocol. Mount it on any mux.
//
// Every request gets one obs.Request record, created in ServeHTTP and
// tagged with a request ID — the client-sent X-Collab-Request header,
// sanitized (obs.SanitizeID), when anything of it is left, a freshly minted
// ID otherwise — which is echoed on the response header. The record is
// handed to the server method the route calls, which fills in the optimizer
// facts, and is emitted once when the request finishes (middleware.go).
type Handler struct {
	srv *core.Server
	mux *http.ServeMux
	log *slog.Logger
	// Serving telemetry (middleware.go): per-route metric families, keyed
	// by the route labels the mounted routes define.
	metrics *httpMetrics
	// slowWarn is slowRequest; tests lower it.
	slowWarn time.Duration
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

// route is one mounted endpoint: pattern is the mux pattern, method and
// path, and the path is the route's metric label.
type route struct {
	pattern string
	handler http.Handler
}

// routes is the one table of what the handler serves.
func (h *Handler) routes() []route {
	return []route{
		{"POST /v1/optimize", http.HandlerFunc(h.optimize)},
		{"POST /v1/update", http.HandlerFunc(h.update)},
		{"GET /v1/artifact", http.HandlerFunc(h.getArtifact)},
		{"POST /v1/artifact", http.HandlerFunc(h.putArtifact)},
		{"GET /v1/stats", http.HandlerFunc(h.stats)},
		{"GET /metrics", h.srv.Metrics().Handler()},
		{"GET /v1/calibration", report(h.calibration)},
		{"GET /v1/explain", report(h.explain)},
		{"GET /v1/requests", report(h.requests)},
		{"GET /v1/clients", report(h.clients)},
		{"GET /v1/artifacts", report(h.artifacts)},
		{"GET /healthz", http.HandlerFunc(h.healthz)},
		{"GET /readyz", http.HandlerFunc(h.readyz)},
	}
}

// NewHandler builds the HTTP façade over a server: it mounts the route
// table and pre-registers one set of serving metrics per route path.
func NewHandler(srv *core.Server, opts ...HandlerOption) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux(), slowWarn: slowRequest}
	var paths []string
	for _, r := range h.routes() {
		h.mux.Handle(r.pattern, r.handler)
		_, path, _ := strings.Cut(r.pattern, " ")
		paths = append(paths, path)
	}
	h.metrics = newHTTPMetrics(srv.Metrics(), paths)
	for _, o := range opts {
		o(h)
	}
	return h
}

// reqKey carries the request's record through the request context.
type reqKey struct{}

// request returns the record ServeHTTP created for r.
func request(r *http.Request) *obs.Request {
	req, _ := r.Context().Value(reqKey{}).(*obs.Request)
	return req
}

func (h *Handler) optimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !readMessage(w, r, maxMetaBody, &req) {
		return
	}
	// A frontier node takes its name from the graph, for the explain record;
	// one the graph does not hold is named to the client instead, whose
	// update then sends it with its ancestry.
	var unknown []string
	for _, n := range req.DAG.Nodes() {
		if !n.Frontier {
			continue
		}
		if v := h.srv.EG.Vertex(n.ID); v != nil {
			n.Name = v.Name
		} else {
			unknown = append(unknown, n.ID)
		}
	}
	writeMessage(w, http.StatusOK, &optimizeResponse{Optimization: *h.srv.Optimize(req.DAG, request(r)), Unknown: unknown})
}

func (h *Handler) update(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !readMessage(w, r, maxArtifactBody, &req) {
		return
	}
	if err := putInline(req.DAG, req.Inline); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The DAG carries meta-data only — column lineage (dedup accounting) and
	// model kinds (warmstart donor matching) included, which the updater
	// merges before it selects — and the inline content on its nodes, so
	// what the materializer selected and was not handed comes back as the
	// list of content to upload.
	want, err := h.srv.Update(req.DAG, request(r), req.WallTime)
	var lost *core.FrontierError
	if errors.As(err, &lost) {
		writeMessage(w, http.StatusConflict, &frontierConflict{Unknown: lost.Unknown})
		return
	}
	resp := UpdateResponse{WantContent: want}
	for i, id := range resp.WantContent {
		// Tell the client which columns of a wanted dataset to leave out:
		// those of the lineage the update carried, or — for a frontier
		// vertex, which carries none — the lineage the graph holds for it.
		// The answer may be stale by the time the upload arrives; the upload
		// handler checks again.
		n := req.DAG.Node(id)
		if n == nil {
			continue
		}
		cols := n.Columns
		if n.Frontier {
			cols = h.srv.EG.Columns(id)
		}
		if len(cols) == 0 {
			continue
		}
		if held := h.srv.Store.HeldColumns(cols); len(held) > 0 {
			if resp.Have == nil {
				resp.Have = make([][]int, len(resp.WantContent))
			}
			resp.Have[i] = held
		}
	}
	writeMessage(w, http.StatusOK, &resp)
}

func (h *Handler) getArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	// PeekRecords, not Get: serving a collaborator must not promote the artifact
	// into the memory tier or disturb the LRU order. A dataset is served as
	// the records the store keeps — a cold artifact streams straight from
	// the disk tier's files — and nothing is decoded.
	stored, tier := h.srv.Store.PeekRecords(id)
	if stored == nil {
		http.Error(w, "artifact not found", http.StatusNotFound)
		return
	}
	w.Header().Set(TierHeader, tier.String())
	writeMessage(w, http.StatusOK, storedDownload{stored})
}

// putInline puts each of an update's inline artifacts on its node of the
// update's DAG. Each must carry content for a vertex the run computed — one
// of the DAG that is neither Computed nor LoadedFromEG, so never a frontier
// node, whose content eg.Merge would otherwise read — and none may be a
// dataset: datasets have one upload shape, the manifest on the upload route.
func putInline(dag *graph.DAG, inline []InlineArtifact) error {
	for _, a := range inline {
		switch a.Content.(type) {
		case nil:
			return fmt.Errorf("inline artifact %q carries no content", a.ID)
		case *graph.DatasetArtifact:
			return fmt.Errorf("inline artifact %q is a dataset: datasets are uploaded as a manifest", a.ID)
		}
		n := dag.Node(a.ID)
		switch {
		case n == nil:
			return fmt.Errorf("inline artifact %q is not a vertex of the update", a.ID)
		case n.Computed || n.LoadedFromEG:
			return fmt.Errorf("inline artifact %q is of a vertex the run did not compute", a.ID)
		}
		n.Content = a.Content
	}
	return nil
}

// putArtifact admits an upload body: every item the update wanted, checked
// for shape and every column record validated before any is admitted
// (readUpload, answered as readMessage answers) and then admitted in body
// order, each all or nothing, as the records arrived: nothing is decoded.
// An item that relies on a column the store has since lost (evicted by
// another client's update) is listed in a 200 answer, and the client resends
// it with every column; a malformed one ends the body with a 400 that names
// it, after the items before it were admitted.
func (h *Handler) putArtifact(w http.ResponseWriter, r *http.Request) {
	var body uploadRecords
	buf := uploadBodies.Get().(*[]byte)
	defer uploadBodies.Put(buf)
	if !readInto(w, r, maxArtifactBody, &body, buf) {
		return
	}
	var resp uploadResponse
	for _, up := range body.Items {
		var err error
		if up.Blob != nil {
			err = h.srv.PutArtifact(up.ID, up.Blob, request(r))
		} else {
			err = h.srv.PutFrameRef(up.ID, up.ColIDs, up.Names, up.Records, request(r))
		}
		switch {
		case err == nil:
		case errors.Is(err, store.ErrColumnAbsent):
			resp.Absent = append(resp.Absent, up.ID)
		case errors.Is(err, store.ErrBadManifest):
			http.Error(w, fmt.Sprintf("artifact %q: %v", up.ID, err), http.StatusBadRequest)
			return
		default:
			http.Error(w, fmt.Sprintf("artifact %q: %v", up.ID, err), http.StatusInternalServerError)
			return
		}
	}
	if len(resp.Absent) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeMessage(w, http.StatusOK, &resp)
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.srv.Stats())
}

// The report views. Each debugging surface is a function from the query to
// a value that renders itself — or to the status and message that say why
// it cannot — and report serves them all the same way. A view implements
// the writers of the formats it has: WriteJSON (format=json, the default,
// byte-stable for a given server state), WriteText (format=text) and
// WriteDOT (format=dot).
type (
	jsonReport interface{ WriteJSON(io.Writer) error }
	textReport interface{ WriteText(io.Writer) error }
	dotReport  interface{ WriteDOT(io.Writer) error }
)

// httpError is a response that is only a status and a plain-text reason.
type httpError struct {
	code int
	msg  string
}

func notFound(msg string) *httpError   { return &httpError{http.StatusNotFound, msg} }
func badRequest(msg string) *httpError { return &httpError{http.StatusBadRequest, msg} }

// report is the one handler of the report views: build the view for the
// query, pick the writer the format parameter names, declare its content
// type, render.
func report(view func(q url.Values) (any, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		rep, herr := view(q)
		if herr != nil {
			http.Error(w, herr.msg, herr.code)
			return
		}
		var write func(io.Writer) error
		var contentType string
		switch format := q.Get("format"); format {
		case "", "json":
			if v, ok := rep.(jsonReport); ok {
				write, contentType = v.WriteJSON, "application/json"
			}
		case "text":
			if v, ok := rep.(textReport); ok {
				write, contentType = v.WriteText, "text/plain; charset=utf-8"
			}
		case "dot":
			if v, ok := rep.(dotReport); ok {
				write, contentType = v.WriteDOT, "text/vnd.graphviz"
			}
		}
		if write == nil {
			http.Error(w, "unknown format "+q.Get("format"), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_ = write(w)
	}
}

// countParam parses a non-negative integer query parameter ("" = def).
func countParam(q url.Values, key string, def int) (int, *httpError) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, badRequest("bad " + key + " " + v)
	}
	return n, nil
}

// calibration is the predicted-vs-measured cost report (json|text).
func (h *Handler) calibration(url.Values) (any, *httpError) {
	return h.srv.Calibration().Snapshot(), nil
}

// explain is the most recent decision record (json|text|dot). Query
// parameters:
//
//	kind=optimize|update  which record (default optimize)
//	target=plan|eg        plan (the default): the record; eg, with
//	                      format=dot: the whole Experiment Graph annotated
//	                      with costs instead
//
// 404 unless the server was started with explain enabled (core.WithExplain)
// and a matching record exists; 400 for any other kind or target.
func (h *Handler) explain(q url.Values) (any, *httpError) {
	ex := h.srv.Explain()
	if ex == nil {
		return nil, notFound("explain disabled on this server")
	}
	switch target := q.Get("target"); target {
	case "", "plan":
	case "eg":
		if q.Get("format") != "dot" {
			return nil, badRequest("target=eg requires format=dot")
		}
		return egGraph{h.srv}, nil
	default:
		return nil, badRequest("unknown target " + target + " (plan|eg)")
	}
	kind := q.Get("kind")
	switch kind {
	case "":
		kind = explain.KindOptimize
	case explain.KindOptimize, explain.KindUpdate:
	default:
		return nil, badRequest("unknown kind " + kind + " (optimize|update)")
	}
	record := ex.Last(kind)
	if record == nil {
		return nil, notFound("no explain record of kind " + kind)
	}
	return record, nil
}

// egGraph is the explain view of the whole Experiment Graph (dot only).
type egGraph struct{ srv *core.Server }

func (e egGraph) WriteDOT(w io.Writer) error { return explain.WriteEGDOT(e.srv.EG, e.srv.Store.Has, w) }

// requests is the flight log of finished requests (json|text). Query
// parameters:
//
//	route=/v1/optimize  keep only this route
//	min=50ms            keep only requests at least this slow
//	limit=20            keep only the most recent N matches
//
// 404 when the server runs with the flight ring disabled.
func (h *Handler) requests(q url.Values) (any, *httpError) {
	fr := h.srv.Flight()
	if fr == nil {
		return nil, notFound("flight recorder disabled on this server")
	}
	filter := obs.RequestFilter{Route: q.Get("route")}
	if min := q.Get("min"); min != "" {
		d, err := time.ParseDuration(min)
		if err != nil {
			return nil, badRequest("bad min duration: " + err.Error())
		}
		filter.MinWall = d
	}
	var herr *httpError
	if filter.Limit, herr = countParam(q, "limit", 0); herr != nil {
		return nil, herr
	}
	return obs.NewFlightReport(fr.Snapshot(), filter), nil
}

// clients is the per-client attribution view of the flight log (json|text).
// 404 when the server runs with client attribution or the flight log
// disabled.
func (h *Handler) clients(url.Values) (any, *httpError) {
	rep := h.srv.ClientReport()
	if rep == nil {
		return nil, notFound("client attribution disabled on this server")
	}
	return rep, nil
}

// artifacts is the artifact ledger: per-artifact residency and storage
// economics — reuse counts, realized savings, rent, net benefit
// (json|text; text adds top-saver/top-waster lists). Query
// parameters:
//
//	sort=net|saved|rent|reuse|bytes|id  ordering (default net benefit,
//	                                    descending; id ascending)
//	top=10            keep only the first N artifacts after sorting
//	id=<vertex id>    keep only this artifact
//
// 404 when the server runs with the artifact ledger disabled.
func (h *Handler) artifacts(q url.Values) (any, *httpError) {
	led := h.srv.ArtifactLedger()
	if led == nil {
		return nil, notFound("artifact ledger disabled on this server")
	}
	query := obs.ArtifactQuery{SortBy: q.Get("sort"), ID: q.Get("id")}
	if !obs.ValidArtifactSort(query.SortBy) {
		return nil, badRequest("unknown sort " + query.SortBy)
	}
	var herr *httpError
	if query.Top, herr = countParam(q, "top", 0); herr != nil {
		return nil, herr
	}
	return led.Report(query), nil
}

// uploadBodies recycles the buffers upload bodies are written into, on a
// client, and read into, on the server: the largest bodies either sends or
// receives, each a fresh allocation of its length otherwise. A client's is
// free again once the transport is done with it (sentBody). What the
// handler keeps of a body is copied out of it — every record
// (validateColumns), every ID and name, every blob decoded — so the
// server's is free again once the body is read.
var uploadBodies = sync.Pool{New: func() any { return new([]byte) }}

// readMessage reads a request body of at most limit bytes and decodes it
// into m, which it must be exactly. It answers 413 for a larger body — at
// once when its declared length says so — and 400 for one that does not
// decode, and reports whether the handler may go on.
func readMessage(w http.ResponseWriter, r *http.Request, limit int64, m unmarshaler) bool {
	return readInto(w, r, limit, m, nil)
}

// readInto is readMessage reading the body into *buf (readBody).
func readInto(w http.ResponseWriter, r *http.Request, limit int64, m unmarshaler, buf *[]byte) bool {
	if r.ContentLength > limit {
		refuseBody(w, &http.MaxBytesError{Limit: limit}, limit)
		return false
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, buf)
	if err == nil {
		err = m.unmarshal(body)
	}
	if err != nil {
		refuseBody(w, err, limit)
	}
	return err == nil
}

// refuseBody answers a body that failed to decode: 413 when it ran past the
// limit, 400 otherwise.
func refuseBody(w http.ResponseWriter, err error, limit int64) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
	}
}

// writeMessage answers code with m and its exact Content-Length, or 500
// when m cannot be encoded: it is encoded whole before anything is sent.
func writeMessage(w http.ResponseWriter, code int, m marshaler) {
	b, err := m.marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// readBody reads a body whose length n is declared (n < 0: unknown) into a
// buffer of that length, so that a large one is not copied again at every
// doubling of a growing buffer: *buf when buf is set, grown first if it is
// shorter. A body declared past maxMetaBody, or of unknown length, grows
// with what actually arrives instead: a declared length alone does not get
// to allocate more.
func readBody(r io.Reader, n int64, buf *[]byte) ([]byte, error) {
	if n < 0 || n > maxMetaBody {
		return io.ReadAll(r)
	}
	var b []byte
	switch {
	case buf == nil:
		b = make([]byte, n)
	case int64(cap(*buf)) < n:
		*buf = make([]byte, n)
		b = *buf
	default:
		b = (*buf)[:n]
	}
	_, err := io.ReadFull(r, b)
	return b, err
}
