package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultSessionBudget is the session store's budget on a new client, in
// deduplicated bytes.
const DefaultSessionBudget = 256 << 20

// Client speaks the HTTP protocol to a remote collaborative-optimizer
// server and implements core.Optimizer, so core.Client drives remote
// workloads exactly like local ones. It stands for one collaborator: what
// its runs fetch or compute stays in its session store (SetSessionBudget), so
// a later run of the same client neither downloads nor recomputes it.
//
// A transport failure is recorded for Err, which the caller checks after a
// run: Optimize then answers nil, Update returns it as well, and a fetch
// finds nothing. core.Client.Run decides how the run goes on.
//
// A Client is safe for concurrent runs: every call carries the record of
// the run it belongs to, whose ID travels as the X-Collab-Request header on
// that call's transfers and on nothing else.
type Client struct {
	base    string
	http    *http.Client
	profile cost.Profile

	mu      sync.Mutex
	lastErr error
	// unknown holds, by the ID of the run that asked, the frontier vertices
	// an optimize answer said the server does not hold, until that run's
	// update sends them with their ancestry. A run whose execution fails
	// never updates, and leaves its few IDs behind.
	unknown map[string][]string
	// name, when set, travels as the X-Collab-Client header on every
	// request so the server's per-client attribution table keys on a
	// stable collaborator identity instead of the remote address.
	name string
	// session holds the artifacts this client has fetched or computed, by
	// vertex ID, across runs: the local pruner's memory (DESIGN.md "Session
	// store"). A memory-only store.Manager is the whole mechanism — column
	// dedup, byte budget, LRU hard eviction. nil when switched off.
	// sessionMet are the counters it is instrumented with, kept for
	// SessionStats.
	session    *store.Manager
	sessionMet store.Metrics
}

// NewClient builds a client for the server at baseURL (e.g.
// "http://localhost:7171"). The profile models artifact transfer costs; it
// should match the deployment (cost.Remote() for a networked server).
func NewClient(baseURL string, profile cost.Profile) *Client {
	c := &Client{
		base:    baseURL,
		http:    &http.Client{Timeout: 120 * time.Second},
		profile: profile,
	}
	c.SetSessionBudget(DefaultSessionBudget)
	return c
}

// SetName sets the collaborator identity sent as the X-Collab-Client
// header on every request ("" stops sending the header). The server
// sanitizes the value; keep it short and printable.
func (c *Client) SetName(name string) {
	c.mu.Lock()
	c.name = name
	c.mu.Unlock()
}

func (c *Client) clientName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name
}

// Err returns the last failure of an optimize, update or upload, if any,
// and clears it. A failed download is not one: FetchTiered returns nil and
// the run computes the artifact instead.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.lastErr
	c.lastErr = nil
	return err
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
}

// Optimize implements core.Optimizer: nil when the server cannot be
// reached, the failure recorded for Err. Vertices the session store holds
// are installed into w first, so the server plans around them, and w travels
// in its frontier form. The frontier vertices the server does not hold are
// remembered for the run's update.
func (c *Client) Optimize(w *graph.DAG, req *obs.Request) *core.Optimization {
	c.installHeld(w)
	var resp optimizeResponse
	if err := c.exchange("/v1/optimize", req, &OptimizeRequest{DAG: w}, &resp); err != nil {
		c.fail(err)
		return nil
	}
	if rid := req.ID(); rid != "" && len(resp.Unknown) > 0 {
		c.mu.Lock()
		if c.unknown == nil {
			c.unknown = make(map[string][]string)
		}
		c.unknown[rid] = resp.Unknown
		c.mu.Unlock()
	}
	return &resp.Optimization
}

// unknownFrontier returns, and forgets, the frontier vertices the optimize
// of run req was told the server does not hold.
func (c *Client) unknownFrontier(req *obs.Request) []string {
	rid := req.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.unknown[rid]
	delete(c.unknown, rid)
	return ids
}

// Update implements core.Optimizer: ship metadata with the models and
// aggregates the run produced (the run's wall time rides on the same
// request, which is where the server builds the run's calibration
// scorecard), then upload whatever else the server asks for in one body —
// so there is never anything left for the caller to supply, and want is
// always empty. A failure is returned and recorded for Err.
//
// An update is one POST /v1/update and at most one POST /v1/artifact, plus
// one resend of what the server refused for a column it lost in between.
// The DAG travels in its frontier form, the frontier vertices the optimize
// answer named with their ancestry; when the server has lost a frontier
// vertex since (409), the update goes once more with that vertex's ancestry
// too. What the run computed or loaded goes into the session store whether
// or not the server can be reached.
func (c *Client) Update(executed *graph.DAG, req *obs.Request, wall time.Duration) (want []string, err error) {
	defer func() {
		if err != nil {
			c.fail(err)
		}
	}()
	c.holdContent(executed)
	var resp UpdateResponse
	body := &UpdateRequest{DAG: executed, Unknown: c.unknownFrontier(req), WallTime: wall, Inline: inline(executed)}
	err = c.exchange("/v1/update", req, body, &resp)
	var conflict *frontierConflict
	if errors.As(err, &conflict) {
		body.Unknown = append(body.Unknown, conflict.Unknown...)
		err = c.exchange("/v1/update", req, body, &resp)
	}
	if err != nil {
		return nil, err
	}
	up := uploadBatch{held: make(map[string]bool)}
	for i, id := range resp.WantContent {
		n := executed.Node(id)
		if n == nil || n.Content == nil {
			continue
		}
		var have []int
		if i < len(resp.Have) {
			have = resp.Have[i]
		}
		up.add(id, n.Content, have)
	}
	if len(up.items) == 0 {
		return nil, nil
	}
	absent, err := c.upload(up.items, req)
	if err != nil || len(absent) == 0 {
		return nil, err
	}
	refused := make(map[string]bool, len(absent))
	for _, id := range absent {
		refused[id] = true
	}
	var resend []artifactUpload
	for _, item := range up.items {
		if !refused[item.ID] {
			continue
		}
		if item.ColIDs != nil { // a manifest: built from a frame with columns
			frame := executed.Node(item.ID).Content.(*graph.DatasetArtifact).Frame
			item.Columns = distinctColumns(frame.Columns(), nil)
		}
		resend = append(resend, item)
	}
	if absent, err = c.upload(resend, req); err == nil && len(absent) > 0 {
		err = fmt.Errorf("remote: upload: the server lacks columns of %v although every column was sent", absent)
	}
	return nil, err
}

// inline returns the content an update carries with it: what the run
// computed (not Computed, not LoadedFromEG — so no source, earlier cell or
// session-store hit) and is not a dataset.
func inline(executed *graph.DAG) []InlineArtifact {
	var out []InlineArtifact
	for _, n := range executed.Nodes() {
		if n.Content == nil || n.Computed || n.LoadedFromEG {
			continue
		}
		if _, ok := n.Content.(*graph.DatasetArtifact); !ok {
			out = append(out, InlineArtifact{ID: n.ID, Content: n.Content})
		}
	}
	return out
}

// do sends one request to the server, tagged with the ID of the run it
// belongs to (req nil: none) and the collaborator's name.
func (c *Client) do(method, url string, body *sentBody, req *obs.Request) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = body
	}
	hr, err := http.NewRequest(method, url, rd)
	if err != nil {
		if body != nil {
			body.Close()
		}
		return nil, err
	}
	if body != nil {
		hr.ContentLength = int64(body.r.Len())
		hr.Header.Set("Content-Type", "application/octet-stream")
	}
	if rid := req.ID(); rid != "" {
		hr.Header.Set(obs.RequestIDHeader, rid)
	}
	if name := c.clientName(); name != "" {
		hr.Header.Set(obs.ClientIDHeader, name)
	}
	return c.http.Do(hr)
}

// Fetch returns an artifact by vertex ID outside any run, or nil.
func (c *Client) Fetch(id string) graph.Artifact {
	content, _, _ := c.FetchTiered(id, nil)
	return content
}

// download GETs an artifact from the server. A 404 (the protocol's "not
// stored"), any other status, a dropped connection and an undecodable body
// all come back as a nil artifact and nothing more: a run computes what it
// could not load, so the failure is not the client's error for Err.
func (c *Client) download(id string, req *obs.Request) (graph.Artifact, string) {
	resp, err := c.do(http.MethodGet, c.base+"/v1/artifact?id="+url.QueryEscape(id), nil, req)
	if err != nil {
		return nil, ""
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, ""
	}
	body, err := readBody(resp.Body, resp.ContentLength, nil)
	var answer downloadResponse
	if err == nil {
		err = answer.unmarshal(body)
	}
	if err != nil {
		return nil, ""
	}
	return answer.Content, resp.Header.Get(TierHeader)
}

// FetchTiered implements core.ArtifactSource, reading through the session
// store: a held ID comes back labelled core.SessionTier and costs nothing;
// anything else is downloaded, held — so an ID is downloaded once for as
// long as the session's budget keeps it — and labelled with the server-side
// tier the bytes came from (the X-Collab-Tier response header) after
// core.RemoteTierPrefix, e.g. "remote:disk", at the client's (remote)
// profile's transfer cost.
func (c *Client) FetchTiered(id string, req *obs.Request) (graph.Artifact, string, time.Duration) {
	held := c.sessionStore()
	if held != nil {
		if a, _ := held.Get(id); a != nil {
			return a, core.SessionTier, 0
		}
	}
	content, srvTier := c.download(id, req)
	if content == nil {
		return nil, "", 0
	}
	if held != nil {
		_ = held.Put(id, content) // a refused frame is simply not held
	}
	return content, core.RemoteTierPrefix + srvTier, c.profile.LoadCost(content.SizeBytes())
}

// CalibrationE fetches the server's calibration report.
func (c *Client) CalibrationE() (*calib.Report, error) {
	var report calib.Report
	return &report, c.getJSON("/v1/calibration", &report)
}

// StatsE fetches server statistics.
func (c *Client) StatsE() (*core.Stats, error) {
	var st core.Stats
	return &st, c.getJSON("/v1/stats", &st)
}

// getJSON GETs one of the server's JSON endpoints into v, under the
// collaborator's name like every other request of this client.
func (c *Client) getJSON(path string, v any) error {
	resp, err := c.do(http.MethodGet, c.base+path, nil, nil)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return statusError(path, resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// uploadBatch builds the upload body of one update, in the order the server
// wanted the vertices. held is the set of column lineage IDs the server
// holds as far as this update knows — those it reported in Have and those
// of earlier items, which the server admits first — so a column shared by
// several wanted vertices travels once.
type uploadBatch struct {
	items []artifactUpload
	held  map[string]bool
}

// add appends the item of one wanted vertex. A dataset travels as its
// manifest plus the columns not held: have are the indices into the
// frame's columns that the update response reported held. Everything else
// travels whole.
func (b *uploadBatch) add(id string, content graph.Artifact, have []int) {
	ds, ok := content.(*graph.DatasetArtifact)
	if !ok || ds.Frame == nil || ds.Frame.NumCols() == 0 {
		b.items = append(b.items, artifactUpload{ID: id, Blob: content})
		return
	}
	cols := ds.Frame.Columns()
	for _, i := range have {
		if i >= 0 && i < len(cols) {
			b.held[cols[i].ID] = true
		}
	}
	b.items = append(b.items, artifactUpload{ID: id, ColIDs: ds.Frame.ColumnIDs(),
		Names: ds.Frame.ColumnNames(), Columns: distinctColumns(cols, b.held)})
	for _, col := range cols {
		b.held[col.ID] = true
	}
}

// distinctColumns returns the columns whose lineage ID is not in skip, one
// per ID.
func distinctColumns(cols []*data.Column, skip map[string]bool) []*data.Column {
	var out []*data.Column
	taken := make(map[string]bool, len(cols))
	for _, col := range cols {
		if !skip[col.ID] && !taken[col.ID] {
			taken[col.ID] = true
			out = append(out, col)
		}
	}
	return out
}

// upload POSTs items as one body and returns the IDs of those the server
// refused because a column they left out is no longer held; it admitted
// the rest. The body is written into a buffer of uploadBodies, which
// exchange is done with when it returns.
func (c *Client) upload(items []artifactUpload, req *obs.Request) ([]string, error) {
	buf := uploadBodies.Get().(*[]byte)
	defer uploadBodies.Put(buf)
	var resp uploadResponse
	err := c.exchange("/v1/artifact", req, &uploadRequest{Items: items, buf: buf}, &resp)
	return resp.Absent, err
}

// exchange POSTs a message, its length the request's Content-Length, and
// decodes a 200 answer into resp. A 204 answer has no body and leaves resp
// as it was; a 409 answer is returned as the *frontierConflict it carries;
// any other status is an error.
func (c *Client) exchange(path string, req *obs.Request, body marshaler, resp unmarshaler) error {
	b, err := body.marshal()
	if err != nil {
		return fmt.Errorf("remote: encode %s body: %w", path, err)
	}
	sent := newSentBody(b)
	defer sent.wait() // the caller may write b again once exchange returns
	r, err := c.do(http.MethodPost, c.base+path, sent, req)
	if err != nil {
		return err
	}
	defer closeBody(r)
	var conflict frontierConflict
	switch r.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return nil
	case http.StatusConflict:
		resp = &conflict
	default:
		return statusError(path, r)
	}
	answer, err := readBody(r.Body, r.ContentLength, nil)
	if err == nil {
		err = resp.unmarshal(answer)
	}
	if err != nil {
		return fmt.Errorf("remote: decode %s answer: %w", path, err)
	}
	if r.StatusCode == http.StatusConflict {
		return &conflict
	}
	return nil
}

// sentBody is a request body the client may write again once the transport
// is done with it: when it has read the body to its end, or closed it,
// which it always does, on errors too. wait returns then.
type sentBody struct {
	r    bytes.Reader
	once sync.Once
	done chan struct{}
}

func newSentBody(b []byte) *sentBody {
	s := &sentBody{done: make(chan struct{})}
	s.r.Reset(b)
	return s
}

func (s *sentBody) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		s.Close()
	}
	return n, err
}

func (s *sentBody) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

func (s *sentBody) wait() { <-s.done }

// maxReason bounds what an error keeps of the reason an error answer gives.
const maxReason = 512

// statusError is the error of an answer of an unexpected status: what was
// asked, the status and the start of the server's reason, the text of
// http.Error. closeBody drains the rest.
func statusError(what string, r *http.Response) error {
	reason, _ := io.ReadAll(io.LimitReader(r.Body, maxReason))
	return fmt.Errorf("remote: %s: HTTP %d: %s", what, r.StatusCode, bytes.TrimSpace(reason))
}

// maxDrain bounds what closeBody reads of a body nobody decoded: an error
// answer is a line of text, and past this much the connection is cheaper to
// lose than the bytes are to read.
const maxDrain = 64 << 10

// closeBody reads what is left of a response body, up to maxDrain bytes,
// and closes it. The transport keeps a connection alive only once its last
// body was read to the end, so an answer closed unread — a 404 fetch, an
// error status — would cost the next request a new dial.
func closeBody(r *http.Response) {
	_, _ = io.CopyN(io.Discard, r.Body, maxDrain) // a failed read only costs the connection
	r.Body.Close()
}
