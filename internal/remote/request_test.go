package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/store"
)

// TestHostileRequestIDIsSanitized: a request ID is client input. One of
// 4 KiB with a newline and a NUL in it is echoed, and kept in the flight ring,
// as at most 64 printable bytes; one with nothing usable in it is replaced by
// a fresh ID.
func TestHostileRequestIDIsSanitized(t *testing.T) {
	h := NewHandler(core.NewServer(store.New(cost.Memory())))
	serve := func(path, id string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.Header[obs.RequestIDHeader] = []string{id} // bypasses the client's header checks
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	printable := func(s string) bool {
		return !strings.ContainsFunc(s, func(r rune) bool { return r <= 0x20 || r > 0x7e })
	}
	hostile := "evil\n\x00" + strings.Repeat("x", 4<<10)
	echoed := serve("/v1/stats", hostile).Header().Get(obs.RequestIDHeader)
	if len(echoed) == 0 || len(echoed) > 64 || !printable(echoed) {
		t.Fatalf("echoed request ID %q (%d bytes)", echoed, len(echoed))
	}
	if blank := serve("/v1/stats", " \t ").Header().Get(obs.RequestIDHeader); len(blank) != 16 {
		t.Errorf("a blank request ID came back as %q, want a fresh one", blank)
	}
	var report obs.FlightReport
	if err := json.NewDecoder(serve("/v1/requests?route=/v1/stats", "").Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Count != 2 || report.Requests[0].RequestID != echoed {
		t.Errorf("the flight ring recorded %+v, want the echoed ID %q first", report.Requests, echoed)
	}
}

// transferLog records the X-Collab-Request header of every artifact
// transfer by the vertex ID it moved: downloads, the items of an upload
// body, and the content an update carries inline.
type transferLog struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string][]string // vertex ID → request IDs of its transfers
}

func (l *transferLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ids []string
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v1/artifact":
		ids = []string{r.URL.Query().Get("id")}
	case r.Method == http.MethodPost && (r.URL.Path == "/v1/artifact" || r.URL.Path == "/v1/update"):
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if r.URL.Path == "/v1/artifact" {
			items, _ := uploadItems(body)
			for _, up := range items {
				ids = append(ids, up.ID)
			}
		} else {
			var req UpdateRequest
			_ = req.unmarshal(body) // the handler answers a bad body
			for _, a := range req.Inline {
				ids = append(ids, a.ID)
			}
		}
	}
	l.mu.Lock()
	for _, id := range ids {
		l.seen[id] = append(l.seen[id], r.Header.Get(obs.RequestIDHeader))
	}
	l.mu.Unlock()
	l.next.ServeHTTP(w, r)
}

// namedPipeline is buildPipeline over a source of the given name, so two
// pipelines share no vertex ID.
func namedPipeline(name string, frame *data.Frame) *graph.DAG {
	w := graph.NewDAG()
	src := w.AddSource(name, &graph.DatasetArtifact{Frame: frame})
	clean := w.Apply(src, ops.FillNA{})
	feat := w.Apply(clean, ops.Derive{Out: "ab", Inputs: []string{"a", "b"}, Fn: ops.Sum})
	model := w.Apply(feat, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 30}, Seed: 1},
		Label: "y",
	})
	w.Combine(ops.Evaluate{Label: "y", Metric: ops.AUC}, model, feat)
	return w
}

// TestSharedClientConcurrentRunsKeepTheirRequestIDs: two goroutines run two
// workloads at once through ONE remote.Client. The request ID is an
// argument of every call, not a field of the client, so every artifact
// upload — inline with an update or in an upload body — (first phase, cold
// server) and download (second phase, a second shared client with an empty
// session) carries the ID of the run that caused it. Run under -race.
func TestSharedClientConcurrentRunsKeepTheirRequestIDs(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	log := &transferLog{next: NewHandler(srv), seen: make(map[string][]string)}
	ts := httptest.NewServer(log)
	defer ts.Close()

	names := []string{"left.csv", "right.csv"}
	frames := []*data.Frame{testFrame(150, 1), testFrame(150, 2)}
	for phase, what := range []string{"upload", "download"} {
		rc := NewClient(ts.URL, cost.Memory()) // shared by both goroutines
		client := core.NewClient(rc)
		log.mu.Lock()
		log.seen = make(map[string][]string)
		log.mu.Unlock()

		var wg sync.WaitGroup
		runID := make([]string, len(names))
		dags := make([]*graph.DAG, len(names))
		for i := range names {
			dags[i] = namedPipeline(names[i], frames[i])
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := client.Run(dags[i])
				if err != nil {
					t.Errorf("%s phase, run %d: %v", what, i, err)
					return
				}
				runID[i] = res.RequestID
			}(i)
		}
		wg.Wait()
		if err := rc.Err(); err != nil {
			t.Fatalf("%s phase transport: %v", what, err)
		}
		if runID[0] == "" || runID[0] == runID[1] {
			t.Fatalf("%s phase run IDs %q", what, runID)
		}
		transfers := 0
		for i, dag := range dags {
			for _, n := range dag.Nodes() {
				for _, got := range log.seen[n.ID] {
					transfers++
					if got != runID[i] {
						t.Errorf("%s of %s (%s) carried request ID %q, want its run's %q",
							what, n.Name, names[i], got, runID[i])
					}
				}
			}
		}
		if transfers == 0 {
			t.Fatalf("phase %d made no artifact %ss; nothing was checked", phase, what)
		}
	}
}
