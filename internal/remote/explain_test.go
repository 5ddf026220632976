package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/store"
)

// newExplainPair is newRemotePair with explain capture and access logging
// enabled; it also returns the recorder and the log buffer.
func newExplainPair(t *testing.T) (*core.Server, *Client, *explain.Recorder, *bytes.Buffer, func()) {
	t.Helper()
	rec := explain.NewRecorder(8)
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithBudget(1<<30), core.WithExplain(rec))
	var logBuf bytes.Buffer
	ts := httptest.NewServer(NewHandler(srv, WithHandlerLogger(obs.NewLogger(&logBuf, 0))))
	client := NewClient(ts.URL, cost.Memory())
	return srv, client, rec, &logBuf, ts.Close
}

func get(t *testing.T, url string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	_, rc, _, _, closeFn := newExplainPair(t)
	defer closeFn()

	// A client-sent ID is echoed verbatim.
	resp := get(t, rc.base+"/v1/stats", map[string]string{obs.RequestIDHeader: "req-echo-1"})
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "req-echo-1" {
		t.Errorf("response %s = %q, want req-echo-1", obs.RequestIDHeader, got)
	}

	// Without one, the server generates an ID.
	resp = get(t, rc.base+"/v1/stats", nil)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got == "" {
		t.Errorf("no %s generated on bare request", obs.RequestIDHeader)
	}
}

// TestRequestIDCorrelatesRunEndToEnd: the ID core.Client generates must
// arrive, over the wire, in the server's explain records and log lines.
func TestRequestIDCorrelatesRunEndToEnd(t *testing.T) {
	_, rc, rec, logBuf, closeFn := newExplainPair(t)
	defer closeFn()

	res, err := core.NewClient(rc).Run(buildPipeline(testFrame(200, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if res.RequestID == "" {
		t.Fatal("run carried no request ID")
	}
	trail := rec.ByRequest(res.RequestID)
	kinds := map[string]bool{}
	for _, r := range trail {
		kinds[r.Kind] = true
	}
	if !kinds[explain.KindOptimize] || !kinds[explain.KindUpdate] {
		t.Errorf("explain trail for %s incomplete: %v", res.RequestID, kinds)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, obs.RequestIDKey+"="+res.RequestID) {
		t.Errorf("access log missing %s=%s:\n%s", obs.RequestIDKey, res.RequestID, logs)
	}
	// Every access-log line carries a request ID.
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		if !strings.Contains(line, obs.RequestIDKey+"=") {
			t.Errorf("log line missing request ID: %s", line)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, rc, _, _, closeFn := newExplainPair(t)
	defer closeFn()

	// No records yet: 404.
	resp := get(t, rc.base+"/v1/explain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain before any run: status %d, want 404", resp.StatusCode)
	}

	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(200, 1))); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		query      string
		status     int
		wantPrefix string
		wantCT     string
	}{
		{"", http.StatusOK, "{", "application/json"},
		{"?kind=optimize&format=json", http.StatusOK, "{", "application/json"},
		{"?kind=update&format=text", http.StatusOK, "explain update", "text/plain; charset=utf-8"},
		{"?format=text", http.StatusOK, "explain optimize", "text/plain; charset=utf-8"},
		{"?format=dot", http.StatusOK, `digraph "explain-optimize"`, "text/vnd.graphviz"},
		{"?target=eg&format=dot", http.StatusOK, `digraph "experiment-graph"`, "text/vnd.graphviz"},
		{"?target=eg&format=json", http.StatusBadRequest, "", ""},
		{"?format=bogus", http.StatusBadRequest, "", ""},
		{"?kind=bogus", http.StatusNotFound, "", ""},
	}
	for _, c := range cases {
		resp := get(t, rc.base+"/v1/explain"+c.query, nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("explain%s: status %d, want %d (%s)", c.query, resp.StatusCode, c.status, body)
			continue
		}
		if c.wantPrefix != "" && !strings.HasPrefix(string(body), c.wantPrefix) {
			t.Errorf("explain%s: body starts %q, want prefix %q", c.query, firstLine(body), c.wantPrefix)
		}
		if c.wantCT != "" && resp.Header.Get("Content-Type") != c.wantCT {
			t.Errorf("explain%s: Content-Type %q, want %q", c.query, resp.Header.Get("Content-Type"), c.wantCT)
		}
	}

	// JSON output round-trips into a Record.
	resp = get(t, rc.base+"/v1/explain?format=json", nil)
	var record map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&record); err != nil {
		t.Fatalf("explain JSON does not parse: %v", err)
	}
	resp.Body.Close()
	if record["kind"] != "optimize" {
		t.Errorf("record kind %v, want optimize", record["kind"])
	}
}

func TestExplainDisabled404(t *testing.T) {
	_, rc, closeFn := newRemotePair(t) // no WithExplain
	defer closeFn()
	resp := get(t, rc.base+"/v1/explain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("explain on a disabled server: status %d, want 404", resp.StatusCode)
	}
}

func TestStatsPrunedSplit(t *testing.T) {
	srv, rc, _, _, closeFn := newExplainPair(t)
	defer closeFn()
	client := core.NewClient(rc)
	for i := 0; i < 2; i++ {
		if _, err := client.Run(buildPipeline(testFrame(200, 1))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	want := srv.Stats()
	offPath, byCost, notMat := want.PlanPrunedOffPath, want.PlanPrunedByCost, want.PlanPrunedNotMaterialized
	if st.PlanPrunedOffPath != offPath || st.PlanPrunedByCost != byCost || st.PlanPrunedNotMaterialized != notMat {
		t.Errorf("stats pruned split (%d,%d,%d) disagrees with server (%d,%d,%d)",
			st.PlanPrunedOffPath, st.PlanPrunedByCost, st.PlanPrunedNotMaterialized,
			offPath, byCost, notMat)
	}
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
