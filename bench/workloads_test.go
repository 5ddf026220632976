package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/workloads/kaggle"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func TestVariantGenerator(t *testing.T) {
	const n = 600
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 7})
	modelIDs := func(seed int64) []string {
		ids := make([]string, n)
		inputs := make([]*repro.Node, len(featureSets))
		dags := make([]*repro.DAG, len(featureSets))
		for base := range featureSets {
			dags[base], inputs[base] = trainingInput(src, base)
		}
		for i, v := range genVariants(seed, n, allFeatureSets) {
			ids[i] = v.addTo(dags[v.base], inputs[v.base]).ID
		}
		return ids
	}
	ids := modelIDs(42)
	first := make(map[string]int)
	for i, id := range ids {
		at, seen := first[id]
		switch {
		case i%10 == 9 && !seen:
			t.Fatalf("variant %d should repeat an earlier one", i)
		case i%10 != 9 && seen:
			t.Fatalf("variant %d has the model vertex of variant %d", i, at)
		case !seen:
			first[id] = i
		}
	}
	if got, want := len(first), n-n/10; got != want {
		t.Errorf("%d distinct model vertices, want %d", got, want)
	}
	again := modelIDs(42)
	for i := range ids {
		if ids[i] != again[i] {
			t.Fatalf("same seed, different vertex at variant %d", i)
		}
	}
	other := modelIDs(43)
	same := 0
	for i := range ids {
		if ids[i] == other[i] {
			same++
		}
	}
	if same == n {
		t.Errorf("another seed gave the same variants")
	}
}

// httpTarget is an in-process server behind httptest, standing in for a
// spawned collabd in the smoke test.
type httpTarget struct{ srv *httptest.Server }

func (h httpTarget) baseURL() string              { return h.srv.URL }
func (h httpTarget) scrape() scrape               { return scrapeURL(h.srv.URL) }
func (h httpTarget) proc() procStats              { return procStats{} }
func (h httpTarget) readyTime() time.Duration     { return time.Millisecond }
func (h httpTarget) stop() (time.Duration, error) { h.srv.Close(); return time.Millisecond, nil }

// TestSmokeEveryWorkload drives each workload at toy size through the real
// client path and HTTP handler and checks that nothing fails and that every
// end-to-end metric is reported by name with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if err := os.Chdir(t.TempDir()); err != nil { // span files land under the temp dir
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			s := &session{w: w, dir: t.TempDir(), launch: func(...string) (target, error) {
				h := repro.NewHTTPHandler(repro.NewMemoryServer(repro.WithWarmstart(true)))
				return httpTarget{httptest.NewServer(h)}, nil
			}}
			sz := sizing{kaggleScale: 1, kagglePass: 2, steps: 20}
			if w.coldPerStep {
				sz.steps = 2
			}
			// One workload also takes the traced path, so that span
			// recording and the layer arithmetic run under test.
			traced := w.name == "openml_stream"
			res, err := s.execute(3, sz, traced, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted != sz.steps {
				t.Fatalf("%d of %d steps failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			e2e := res.values
			if traced {
				e2e = res.EndToEnd
				line := res.driverLine()["metrics"].(map[string]reported)
				for _, d := range perLayer {
					if got, ok := line[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("per-layer metric %s reported as %+v", d.name, got)
					}
				}
				if res.values["remote.update.count"] != float64(sz.steps) {
					t.Errorf("remote.update.count = %v, want %d", res.values["remote.update.count"], sz.steps)
				}
			} else {
				line := res.driverLine()["metrics"].(map[string]reported)
				for _, d := range endToEnd {
					if got, ok := line[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("end-to-end metric %s reported as %+v", d.name, got)
					}
				}
			}
			for _, d := range endToEnd {
				if !(e2e[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, e2e[d.name])
				}
			}
		})
	}
}
