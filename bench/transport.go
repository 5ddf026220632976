package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// maxClients is the most client goroutines any workload uses (shared_2c).
const maxClients = 2

// clientHeader is the wire header remote.Client.SetName sends; the meter
// reads it to tell the two clients of shared_2c apart. Requests without it
// belong to client 0.
const clientHeader = "X-Collab-Client"

// tierHeader is the response header naming the server tier an artifact was
// served from.
const tierHeader = "X-Collab-Tier"

// The four routes a Client.Run exercises.
var routes = []string{"optimize", "update", "upload", "fetch"}

func routeOf(req *http.Request) string {
	switch {
	case strings.HasSuffix(req.URL.Path, "/v1/optimize"):
		return "optimize"
	case strings.HasSuffix(req.URL.Path, "/v1/update"):
		return "update"
	case strings.HasSuffix(req.URL.Path, "/v1/artifact") && req.Method == http.MethodPost:
		return "upload"
	case strings.HasSuffix(req.URL.Path, "/v1/artifact"):
		return "fetch"
	}
	return "other"
}

// clientSlot is what the meter knows about one client goroutine: the step
// it is running (the run id of its spans), that step's run span, and how
// many of its requests failed.
type clientSlot struct {
	step    atomic.Int64
	runSpan atomic.Int64
	failed  atomic.Int64
}

// meter is the http.RoundTripper the benchmark installs as
// http.DefaultTransport in its own process, so every request of every
// remote.Client passes through it. With rec == nil it only counts bytes and
// failures; with a recorder it also records one span per request, ended when
// the response body hits EOF or is closed, so transfer and streaming decode
// are inside the span.
type meter struct {
	next http.RoundTripper
	rec  *recorder

	reqBytes  atomic.Int64
	respBytes atomic.Int64
	slots     [maxClients]clientSlot
}

// stockTransport is http.DefaultTransport as the standard library ships it,
// kept from before any meter takes its place.
var stockTransport = http.DefaultTransport.(*http.Transport)

func newMeter(rec *recorder) *meter {
	return &meter{next: stockTransport.Clone(), rec: rec}
}

func (m *meter) slotIndex(req *http.Request) int {
	if name := req.Header.Get(clientHeader); len(name) == 2 && name[0] == 'c' {
		if i := int(name[1] - '0'); i >= 0 && i < maxClients {
			return i
		}
	}
	return 0
}

// failures returns how many requests of client i failed so far (transport
// errors and non-2xx answers).
func (m *meter) failures(i int) int64 { return m.slots[i].failed.Load() }

// wireBytes returns request + response body bytes seen so far.
func (m *meter) wireBytes() int64 { return m.reqBytes.Load() + m.respBytes.Load() }

// RoundTrip implements http.RoundTripper.
func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	ci := m.slotIndex(req)
	slot := &m.slots[ci]
	var reqLen int64
	if req.ContentLength > 0 {
		reqLen = req.ContentLength
		m.reqBytes.Add(reqLen)
	}
	id := -1
	if m.rec != nil {
		id = m.rec.begin(routeOf(req), req.URL.Query().Get("id"), ci, int(slot.step.Load()), int(slot.runSpan.Load()))
	}
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		slot.failed.Add(1)
		if id >= 0 {
			m.rec.end(id, func(s *span) { s.reqBytes, s.status = reqLen, -1 })
		}
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		slot.failed.Add(1)
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m, id: id, reqLen: reqLen,
		status: resp.StatusCode, tier: resp.Header.Get(tierHeader)}
	return resp, nil
}

// meteredBody counts the bytes the caller reads and closes the request's
// span at EOF or Close, whichever comes first.
type meteredBody struct {
	io.ReadCloser
	m      *meter
	id     int
	reqLen int64
	n      int64
	status int
	tier   string
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	b.m.respBytes.Add(int64(n))
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *meteredBody) finish() {
	if b.id < 0 {
		return
	}
	b.m.rec.end(b.id, func(s *span) {
		s.reqBytes, s.respBytes, s.status, s.tier = b.reqLen, b.n, b.status, b.tier
	})
	b.id = -1
}
