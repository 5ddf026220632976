package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestManifestMatchesCode keeps BENCHMARK.json and the tables this package
// reports from in step, and checks the limits the driver enforces.
func TestManifestMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytesReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := currentManifest()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the code; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric")
	}
	for _, m := range want.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s breaks the unit rule", m.Unit, m.Name)
		}
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}
