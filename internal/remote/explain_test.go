package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// newExplainPair is newRemotePair with explain capture and access logging
// enabled; it also returns the reader of the records and the log buffer.
func newExplainPair(t *testing.T) (*core.Server, *Client, *core.Explainer, *bytes.Buffer, func()) {
	t.Helper()
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithBudget(1<<30), core.WithExplain(true))
	rec := srv.Explain()
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
	trail := []*explain.Record{rec.Last(explain.KindOptimize), rec.Last(explain.KindUpdate)}
	kinds := map[string]bool{}
	for _, r := range trail {
		if r.RequestID == res.RequestID {
			kinds[r.Kind] = true
		}
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
		{"?kind=bogus", http.StatusBadRequest, "unknown kind bogus (optimize|update)", ""},
		{"?target=bogus", http.StatusBadRequest, "unknown target bogus (plan|eg)", ""},
		{"?target=plan&kind=update&format=text", http.StatusOK, "explain update", "text/plain; charset=utf-8"},
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

// TestExplainUpdateRendersBesideUpdates reads the update record in json,
// text and dot while two clients run overlapping workloads against a budget
// that binds. The record is rendered when it is read, from run lists that
// live in the updater's scratch buffers, so under -race this pins that the
// render holds the server mutex; and every answer must decode into rows whose
// outcomes add up to the counts: selected + vetoed + budget-exhausted =
// eligible.
func TestExplainUpdateRendersBesideUpdates(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(256), core.WithExplain(true))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	p := synth.WideProfile{Branches: 3, Depth: 2, SpinIters: 200}
	run := func(seed int64) error {
		rc := NewClient(ts.URL, cost.Memory())
		if _, err := core.NewClient(rc).Run(synth.Wide(p, seed)); err != nil {
			return err
		}
		return rc.Err()
	}
	if err := run(0); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writers sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 6; i++ {
				if err := run(int64((c + i) % 4)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	go func() { writers.Wait(); close(done) }()

	outcomes := []string{explain.MatSelected, explain.MatVetoedLoadCost, explain.MatBudgetExhausted}
	reads := 0
	for stop := false; !stop; reads++ {
		select {
		case <-done:
			stop = true // one more read of each format after the last update
		default:
		}
		for _, format := range []string{"json", "text", "dot"} {
			resp := get(t, ts.URL+"/v1/explain?kind=update&format="+format, nil)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", format, resp.StatusCode, body)
			}
			tally := map[string]int{}
			var eligible int
			var counts map[string]int
			switch format {
			case "json":
				var rec explain.Record
				if err := json.Unmarshal(body, &rec); err != nil {
					t.Fatalf("json does not decode: %v", err)
				}
				for _, m := range rec.Materialize {
					tally[m.Decision]++
				}
				eligible = rec.Mat.Eligible
				counts = map[string]int{outcomes[0]: rec.Mat.Selected, outcomes[1]: rec.Mat.VetoedLoadCost, outcomes[2]: rec.Mat.BudgetExhausted}
			case "text":
				lines := strings.Split(string(body), "\n")
				var strategy string
				var budget, selBytes int64
				var sel, vet, over int
				if _, err := fmt.Sscanf(lines[1], "strategy %s budget %d bytes, eligible %d, selected %d (%d bytes), vetoed-load-cost %d, budget-exhausted %d",
					&strategy, &budget, &eligible, &sel, &selBytes, &vet, &over); err != nil {
					t.Fatalf("text header %q does not decode: %v", lines[1], err)
				}
				for _, line := range lines[3:] {
					if f := strings.Fields(line); len(f) > 0 && f[0] != "scorecard:" {
						tally[f[0]]++
					}
				}
				counts = map[string]int{outcomes[0]: sel, outcomes[1]: vet, outcomes[2]: over}
			case "dot":
				if !strings.HasPrefix(string(body), `digraph "explain-update" {`) || !strings.HasSuffix(string(body), "}\n") {
					t.Fatalf("dot is not one graph:\n%s", body)
				}
				for _, line := range strings.Split(string(body), "\n") {
					if _, label, ok := strings.Cut(line, `label="`); ok {
						tally[strings.Split(label, `\n`)[1]]++
					}
				}
				counts = tally
				for _, o := range outcomes {
					eligible += tally[o]
				}
			}
			rows := 0
			for decision, n := range tally {
				if counts[decision] != n {
					t.Errorf("%s: %d rows %s, the counts say %d", format, n, decision, counts[decision])
				}
				rows += n
			}
			if sum := counts[outcomes[0]] + counts[outcomes[1]] + counts[outcomes[2]]; rows != eligible || sum != eligible || eligible == 0 {
				t.Errorf("%s: %d rows, counts summing to %d, of %d eligible", format, rows, sum, eligible)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d reads of each format", reads)
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
