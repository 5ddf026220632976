package remote

import (
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
	"repro/internal/obs"
	"repro/internal/store"
)

// TestClientsEndpointAttributes drives a workload under a named client and
// asserts /v1/clients reports the annotation-enriched attribution row.
func TestClientsEndpointAttributes(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	rc.SetName("analyst-1")
	client := core.NewClient(rc)
	if _, err := client.Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(rc.base + "/v1/clients")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/clients = %d", resp.StatusCode)
	}
	var export struct {
		Count   int               `json:"count"`
		Clients []obs.ClientStats `json:"clients"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	var row *obs.ClientStats
	for i := range export.Clients {
		if export.Clients[i].Client == "analyst-1" {
			row = &export.Clients[i]
		}
	}
	if row == nil {
		t.Fatalf("no analyst-1 row in %+v", export.Clients)
	}
	// One run = optimize + update (+ artifact uploads); wall time and bytes
	// must accumulate, and the optimize annotation carries plan time.
	if row.Requests < 2 || row.WallNS <= 0 || row.BytesIn <= 0 || row.BytesOut <= 0 {
		t.Fatalf("attribution row incomplete: %+v", row)
	}
	if row.PlanNS <= 0 {
		t.Fatalf("plan time not attributed (annotation join broken): %+v", row)
	}

	// The text rendering names the client too.
	resp2, err := http.Get(rc.base + "/v1/clients?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "analyst-1") {
		t.Fatalf("text rendering missing client:\n%s", text)
	}
}

// TestStatsReadsCarryTheClientName: a named collaborator's reads of
// /v1/stats go through the same request path as its runs, so /v1/clients
// files them on its row, not under its remote address.
func TestStatsReadsCarryTheClientName(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	rc.SetName("alice")
	if _, err := rc.StatsE(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.CalibrationE(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(rc.base + "/v1/clients")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var export struct {
		Clients []obs.ClientStats `json:"clients"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	for _, row := range export.Clients {
		if row.Client == "alice" {
			if row.Requests != 2 {
				t.Errorf("alice's row counts %d requests, want the stats and calibration reads", row.Requests)
			}
			return
		}
	}
	t.Errorf("no alice row in /v1/clients: %+v", export.Clients)
}

// TestClientsEndpointFallsBackToRemoteAddr verifies unnamed callers are
// attributed by their remote address host.
func TestClientsEndpointFallsBackToRemoteAddr(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()))
	h := NewHandler(srv)
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.RemoteAddr = "10.1.2.3:55555"
	h.ServeHTTP(httptest.NewRecorder(), req)
	rows := srv.ClientReport().Clients
	if len(rows) != 1 || rows[0].Client != "10.1.2.3" {
		t.Fatalf("rows = %+v, want one 10.1.2.3 row", rows)
	}
}

// TestClientsEndpointDisabled: /v1/clients answers 404 with attribution
// off, and with the flight log it reads off.
func TestClientsEndpointDisabled(t *testing.T) {
	for _, opt := range []core.ServerOption{core.WithClients(false), core.WithFlightRecorder(nil)} {
		srv := core.NewServer(store.New(cost.Memory()), opt)
		w := httptest.NewRecorder()
		NewHandler(srv).ServeHTTP(w, httptest.NewRequest("GET", "/v1/clients", nil))
		if w.Code != http.StatusNotFound || srv.ClientReport() != nil {
			t.Fatalf("disabled /v1/clients = %d, report %v; want 404 and none", w.Code, srv.ClientReport())
		}
	}
}

// TestClientsViewSumsTheFlightLog: two named collaborators run at once —
// cold runs, so one of them uploads what the server asks for, and alice
// also sends a request the server refuses — while a reader polls /v1/clients in both
// renderings. Afterwards each collaborator's /v1/clients row is the sum of
// its records in /v1/requests, which are told apart by request ID.
func TestClientsViewSumsTheFlightLog(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithFlightRecorder(obs.NewRing[obs.Request](4096)))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	get := func(path, client, requestID string) *http.Response {
		r, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		r.Header.Set(obs.ClientIDHeader, client)
		if requestID != "" {
			r.Header.Set(obs.RequestIDHeader, requestID)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}

	owner := map[string]string{"alice-missing": "alice"} // request ID → client
	var mu sync.Mutex
	var runs sync.WaitGroup
	for i, name := range []string{"alice", "bob"} {
		runs.Add(1)
		go func() {
			defer runs.Done()
			rc := NewClient(ts.URL, cost.Memory())
			rc.SetName(name)
			res, err := core.NewClient(rc).Run(buildPipeline(testFrame(120, int64(i+1))))
			if err == nil {
				err = rc.Err()
			}
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			owner[res.RequestID] = name
			mu.Unlock()
		}()
	}
	if resp := get("/v1/artifact?id=no-such-artifact", "alice", "alice-missing"); resp != nil {
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("fetching an unknown artifact = %d, want a refusal", resp.StatusCode)
		}
	}
	done := make(chan struct{})
	go func() { runs.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, format := range []string{"json", "text"} {
			resp := get("/v1/clients?format="+format, "reader", "")
			if resp == nil {
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/clients?format=%s = %d, %v", format, resp.StatusCode, err)
			}
			var rep obs.ClientReport
			if format == "json" && (json.Unmarshal(body, &rep) != nil || rep.Count != len(rep.Clients)) {
				t.Fatalf("/v1/clients JSON while clients run:\n%s", body)
			}
		}
	}
	if t.Failed() {
		return
	}

	var log obs.FlightReport
	resp := get("/v1/requests", "reader", "")
	err := json.NewDecoder(resp.Body).Decode(&log)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*obs.ClientStats{"alice": {Client: "alice"}, "bob": {Client: "bob"}}
	uploads := 0
	for _, r := range log.Requests {
		row := want[owner[r.RequestID]]
		if row == nil {
			continue
		}
		row.Requests++
		if r.Status >= 400 {
			row.Errors++
		}
		row.WallNS += r.WallNanos
		row.BytesIn += r.BytesIn
		row.BytesOut += r.BytesOut
		row.LockWaitNS += r.LockWaitNanos
		row.PlanNS += r.PlanNanos
		if r.Method == http.MethodPost && r.Route == "/v1/artifact" {
			uploads++
		}
	}
	if want["alice"].Errors == 0 || uploads == 0 {
		t.Fatalf("the log lacks a refused request or an upload: alice %+v, %d uploads", *want["alice"], uploads)
	}

	var rep obs.ClientReport
	resp = get("/v1/clients", "reader", "")
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range rep.Clients {
		if w := want[got.Client]; w != nil {
			if got != *w {
				t.Errorf("/v1/clients row %+v, want the /v1/requests sums %+v", got, *w)
			}
			delete(want, got.Client)
		}
	}
	if len(want) > 0 {
		t.Errorf("/v1/clients has no row for %v", want)
	}
}

// TestClientsViewIsBoundedByTheFlightLog: a flood of requests, each under an
// identity of its own, leaves at most as many /v1/clients rows as the flight
// log keeps requests.
func TestClientsViewIsBoundedByTheFlightLog(t *testing.T) {
	const keep = 16
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithFlightRecorder(obs.NewRing[obs.Request](keep)))
	h := NewHandler(srv)
	for i := 0; i < 10*keep; i++ {
		r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		r.Header.Set(obs.ClientIDHeader, fmt.Sprintf("spoofed-%d", i))
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/clients", nil))
	var rep obs.ClientReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Count != keep || len(rep.Clients) != keep {
		t.Fatalf("%d rows after %d distinct clients, want the %d the flight log keeps", rep.Count, 10*keep, keep)
	}
}

// TestStatsCarriesSaturation asserts /v1/stats exposes the server and store
// lock-wait fields.
func TestStatsCarriesSaturation(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(120, 1))); err != nil {
		t.Fatal(err)
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	// Lock holds are real time (the optimize/update sections did work);
	// waits may round to ~0 uncontended but must be present and non-negative.
	if st.LockHoldSec <= 0 {
		t.Fatalf("LockHoldSec = %v, want > 0 after a served run", st.LockHoldSec)
	}
	if st.LockWaitSec < 0 || st.StoreLockWaitSec < 0 {
		t.Fatalf("negative lock waits: %+v", st)
	}
}
