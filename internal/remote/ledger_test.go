package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/store"
)

// scriptedLedgerServer builds a server whose artifact ledger holds a
// hand-scripted lifecycle under a frozen fake clock: every byte of the
// /v1/artifacts response is deterministic. Rent rates are pinned after
// construction (NewServer re-derives them from the store's cost profiles)
// so the expected rent is trivially hand-checkable: memory 0.001 and disk
// 0.01 seconds per byte-second.
func scriptedLedgerServer(t *testing.T) *core.Server {
	t.Helper()
	led := obs.NewArtifactLedger(64)
	srv := core.NewServer(store.New(cost.Memory()), core.WithArtifactLedger(led))
	now := time.Unix(1700000000, 0).UTC()
	led.SetClock(func() time.Time { return now })
	led.SetRentRate("memory", 0.001)
	led.SetRentRate("disk", 0.01)

	// ds-clean: materialize → 2 measured memory reuses → demote → evict.
	led.Hold("ds-clean", true, false, 100)
	now = now.Add(10 * time.Second)
	led.ObserveReuse("ds-clean", "memory", 100, 0.5)
	led.ObserveReuse("ds-clean", "memory", 100, 0.5)
	led.Hold("ds-clean", false, true, 100)
	now = now.Add(5 * time.Second)
	led.Hold("ds-clean", false, false, 100)
	// model-a: materialize and hold — pure rent, no reuse.
	led.Hold("model-a", true, false, 50)
	now = now.Add(20 * time.Second)
	return srv
}

// TestArtifactsEndpointGolden pins the full HTTP rendering of the
// scripted lifecycle: byte-stable JSON and text, with hand-checked
// economics.
func TestArtifactsEndpointGolden(t *testing.T) {
	srv := scriptedLedgerServer(t)
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	get := func(q string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/artifacts" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/artifacts%s = %d", q, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	for _, tc := range []struct {
		query  string
		golden string
	}{
		{"", "artifacts.json.golden"},
		{"?format=text", "artifacts.txt.golden"},
	} {
		got := get(tc.query)
		// Byte-stability: the same query twice yields identical bytes.
		if again := get(tc.query); !bytes.Equal(got, again) {
			t.Fatalf("GET /v1/artifacts%s is not byte-stable", tc.query)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, got, want)
		}
	}

	// Hand-check the economics against the script. ds-clean: saved 1.0s;
	// rent = 10s×100B memory×0.001 + 5s×100B disk×0.01 = 1.0 + 5.0... no:
	// 10×100×0.001 = 1.0 and 5×100×0.01 = 5.0 → rent 6.0, net −5.0.
	// model-a: still resident, 20s×50B×0.001 = 1.0 rent, net −1.0.
	var export struct {
		Count    int     `json:"count"`
		SavedSec float64 `json:"saved_sec"`
		RentSec  float64 `json:"rent_sec"`
		NetSec   float64 `json:"net_sec"`
		Rows     []struct {
			ID      string  `json:"id"`
			Reuse   int64   `json:"reuse"`
			RentSec float64 `json:"rent_sec"`
			NetSec  float64 `json:"net_sec"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(get(""), &export); err != nil {
		t.Fatal(err)
	}
	if export.Count != 2 || export.SavedSec != 1.0 || export.RentSec != 7.0 || export.NetSec != -6.0 {
		t.Fatalf("economics totals wrong: %+v", export)
	}
	// Default sort is net-descending: model-a (−1.0) before ds-clean (−5.0).
	if export.Rows[0].ID != "model-a" || export.Rows[1].ID != "ds-clean" {
		t.Fatalf("sort order wrong: %+v", export.Rows)
	}
	if export.Rows[1].Reuse != 2 || export.Rows[1].RentSec != 6.0 || export.Rows[1].NetSec != -5.0 {
		t.Fatalf("ds-clean row wrong: %+v", export.Rows[1])
	}

	// Query handling: filters, sorts, top-K, and the 400/404 vocabulary.
	if body := get("?id=ds-clean"); !bytes.Contains(body, []byte("ds-clean")) ||
		bytes.Contains(body, []byte("model-a")) {
		t.Fatalf("id filter leaked rows:\n%s", body)
	}
	var top struct {
		Rows []json.RawMessage `json:"artifacts"`
	}
	if err := json.Unmarshal(get("?sort=rent&top=1"), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Rows) != 1 {
		t.Fatalf("top=1 returned %d rows", len(top.Rows))
	}
	for _, bad := range []string{"?sort=bogus", "?top=x", "?top=-1", "?format=xml"} {
		resp, err := http.Get(ts.URL + "/v1/artifacts" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/artifacts%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestArtifactsEndpointDisabled(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithArtifactLedger(nil))
	h := NewHandler(srv)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/artifacts", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled /v1/artifacts = %d, want 404", w.Code)
	}
}

// TestArtifactsEndToEnd runs a real pipeline through two remote clients,
// one after the other, and checks the default-enabled ledger observed the uploads on run
// one and the reuses on run two, that /v1/stats carries the tier counts
// and economics summary, and that the metric families are exported.
func TestArtifactsEndToEnd(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	frame := testFrame(150, 1)
	if _, err := core.NewClient(rc).Run(buildPipeline(frame)); err != nil {
		t.Fatal(err)
	}
	r2, err := core.NewClient(anotherClient(rc)).Run(buildPipeline(frame))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Reused == 0 {
		t.Fatal("second run reused nothing; ledger has nothing to observe")
	}

	led := srv.ArtifactLedger()
	if led == nil || led.Len() == 0 {
		t.Fatal("default server ledger should be enabled and populated")
	}
	if ledgerReuse(led) == 0 {
		t.Fatal("reuse observations did not reach the ledger")
	}

	resp, err := http.Get(rc.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st core.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MemoryArtifacts == 0 {
		t.Fatalf("stats memory artifact count = 0: %+v", st)
	}
	if st.ArtifactsTracked != led.Len() {
		t.Fatalf("stats tracked %d artifacts, ledger has %d", st.ArtifactsTracked, led.Len())
	}

	resp2, err := http.Get(rc.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	metrics, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"collab_artifact_tracked",
		"collab_artifact_dropped_total",
		"collab_artifact_net_benefit_seconds",
	} {
		if !strings.Contains(string(metrics), fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
}

// ledgerReuse sums the ledger's per-artifact reuse counts.
func ledgerReuse(led *obs.ArtifactLedger) int64 {
	var n int64
	for _, r := range led.Snapshot(obs.ArtifactQuery{}) {
		n += r.Reuse
	}
	return n
}

// TestLedgerCountsTierHitsOverHTTP: a fetch over the wire is labelled with
// the server tier behind core.RemoteTierPrefix, and the ledger credits that
// tier, as it does for an in-process fetch. With the session store off, the
// repeat run fetches every reuse from the server's memory tier.
func TestLedgerCountsTierHitsOverHTTP(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	rc.SetSessionBudget(0)
	client := core.NewClient(rc)
	frame := testFrame(150, 1)
	for run := 1; run <= 2; run++ {
		res, err := client.Run(buildPipeline(frame))
		if err != nil {
			t.Fatal(err)
		}
		if run == 2 && res.Reused == 0 {
			t.Fatal("the repeat run reused nothing")
		}
	}
	var memory, disk int64
	for _, r := range srv.ArtifactLedger().Snapshot(obs.ArtifactQuery{}) {
		memory += r.MemoryHits
		disk += r.DiskHits
	}
	if reuse := ledgerReuse(srv.ArtifactLedger()); memory != reuse || disk != 0 {
		t.Fatalf("ledger: %d reuses, %d memory hits, %d disk hits; want every reuse a memory hit", reuse, memory, disk)
	}
}
