package remote

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// seedCalibration feeds the server's collector a fixed observation set so
// /v1/calibration renders deterministic bytes.
func seedCalibration(srv *core.Server) {
	c := srv.Calibration()
	for i := 1; i <= 10; i++ {
		size := int64(i * 4096)
		actual := time.Duration(i) * 50 * time.Microsecond
		c.ObserveLoad("remote", size, 4*actual, actual)
	}
	c.ObserveCompute("train", 80*time.Millisecond, 100*time.Millisecond)
	c.ObserveCompute("train", 90*time.Millisecond, 100*time.Millisecond)
	sc := calib.NewScorecard("req-remote-01", 3, 1,
		700*time.Millisecond, 25*time.Millisecond, 180*time.Millisecond)
	sc.WallSec = 0.31
	c.RecordScorecard(sc)
}

func TestCalibrationEndpointGolden(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	seedCalibration(srv)

	resp, err := http.Get(rc.base + "/v1/calibration")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "calibration.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("calibration JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A second fetch of the unchanged collector must render identical bytes.
	resp2, err := http.Get(rc.base + "/v1/calibration")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	again, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Error("repeated /v1/calibration responses differ for identical state")
	}
}

func TestCalibrationEndpointFormats(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	seedCalibration(srv)

	resp, err := http.Get(rc.base + "/v1/calibration?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("load:remote")) {
		t.Fatalf("text format: status %d body %q", resp.StatusCode, body)
	}
	bad, err := http.Get(rc.base + "/v1/calibration?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", bad.StatusCode)
	}
}

// TestRemoteCalibrationEndToEnd drives one run each of two clients over HTTP
// and asserts the second client's fetch measurements and wall time arrive at
// the server's collector — load observations in the remote tier family and
// a recorded scorecard — and that the ten calibration fields of /v1/stats
// say what /v1/calibration says.
func TestRemoteCalibrationEndToEnd(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	frame := testFrame(200, 3)

	for i, c := range []*Client{rc, anotherClient(rc)} {
		if _, err := core.NewClient(c).Run(buildPipeline(frame)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("transport error on run %d: %v", i, err)
		}
	}

	report, err := rc.CalibrationE()
	if err != nil {
		t.Fatal(err)
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range report.Families {
		found = found || f.Name == "load:remote" && f.Count > 0
	}
	if !found {
		b, _ := json.Marshal(report.Families)
		t.Errorf("report lacks load:remote family: %s", b)
	}
	if report.Runs == 0 || report.LastRun == nil || report.LastRun.WallSec <= 0 || report.LastRun.Reused == 0 {
		t.Fatalf("report runs=%d last=%+v, want a reused scorecard with its wall time", report.Runs, report.LastRun)
	}

	if st.LastRun == nil {
		t.Fatal("stats carries no LastRun")
	}
	// What /v1/stats derives, derived here independently from the report.
	var loadObs, computeObs int64
	var worst string
	var worstDrift float64
	for _, f := range report.Families {
		if strings.HasPrefix(f.Name, "load:") {
			loadObs += f.Count
		} else {
			computeObs += f.Count
		}
		if f.Drift > worstDrift || (f.Drift == worstDrift && f.Drift > 0 && f.Name < worst) {
			worst, worstDrift = f.Name, f.Drift
		}
	}
	asDuration := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Runs", st.Runs, report.Runs},
		{"RunWallTime", st.RunWallTime, asDuration(report.WallSecTotal)},
		{"LastRunWallTime", st.LastRunWallTime, asDuration(report.LastRun.WallSec)},
		{"CalibLoadObs", st.CalibLoadObs, loadObs},
		{"CalibComputeObs", st.CalibComputeObs, computeObs},
		{"EstimatedSavedSec", st.EstimatedSavedSec, report.EstimatedSavedSecTotal},
		{"LastSpeedup", st.LastSpeedup, report.LastSpeedup},
		{"MaxDriftFamily", st.MaxDriftFamily, worst},
		{"MaxDrift", st.MaxDrift, worstDrift},
		{"LastRun", *st.LastRun, *report.LastRun},
	} {
		if c.got != c.want {
			t.Errorf("stats %s = %v, calibration report says %v", c.field, c.got, c.want)
		}
	}
}
