package remote

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

	resp, err := http.Get(rc.BaseURL() + "/v1/clients")
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
	resp2, err := http.Get(rc.BaseURL() + "/v1/clients?format=text")
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
	resp, err := http.Get(rc.BaseURL() + "/v1/clients")
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
	rows := srv.Clients().Snapshot()
	if len(rows) != 1 || rows[0].Client != "10.1.2.3" {
		t.Fatalf("rows = %+v, want one 10.1.2.3 row", rows)
	}
}

func TestClientsEndpointDisabled(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithClientTable(nil))
	h := NewHandler(srv)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/clients", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled /v1/clients = %d, want 404", w.Code)
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
