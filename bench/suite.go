package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// child runs one workload in a process of its own, as the driver does, and
// reads its result back from the file it wrote. The child's metric table
// goes to tables; a child that leaves no result has its output shown.
func child(w *workload, seed int64, seconds int, traced bool, untracedWall float64, tables io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.%s.json", w.name, seed, mode))
	_ = os.Remove(file)
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-out", file}
	if traced {
		args = append(args, "-trace", "1", "-untraced-wall", strconv.FormatFloat(untracedWall, 'g', -1, 64))
	}
	cmd := exec.Command(self, args...)
	var table bytes.Buffer
	cmd.Stderr = &table
	runErr := cmd.Run()
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("%s %s run left no result (%v):\n%s", w.name, mode, runErr, table.String())
	}
	_, _ = tables.Write(table.Bytes())
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll runs every workload untraced, then traced, evaluates the guards
// over all of them and writes the merged results.
func runAll(seed int64, seconds int) int {
	var merged struct {
		Seed    int64         `json:"seed"`
		Seconds int           `json:"seconds"`
		Host    host          `json:"host"`
		Runs    []*result     `json:"runs"`
		Guards  []guardResult `json:"guards"`
	}
	merged.Seed, merged.Seconds, merged.Host = seed, seconds, hostFacts()
	traced := make(map[string]map[string]float64)
	status := 0
	for _, w := range workloads {
		plain, err := child(w, seed, seconds, false, 0, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		deep, err := child(w, seed, seconds, true, plain.Metrics["wall_s"], os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if plain.Failed+deep.Failed > 0 {
			status = 1
		}
		merged.Runs = append(merged.Runs, plain, deep)
		traced[w.name] = deep.Metrics
	}
	merged.Guards = evalGuards(traced)

	fmt.Fprintf(os.Stderr, "\n%-16s %10s %12s %10s %9s %8s %8s\n",
		"workload", "wall_s", "step_p50_ms", "wire_mb", "setup_s", "failed", "trace+")
	for i := 0; i < len(merged.Runs); i += 2 {
		p, d := merged.Runs[i], merged.Runs[i+1]
		fmt.Fprintf(os.Stderr, "%-16s %10.3f %12.3f %10.3f %9.3f %8d %+7.1f%%\n", p.Workload,
			p.Metrics["wall_s"], p.Metrics["step_p50_ms"], p.Metrics["wire_mb"], p.Metrics["setup_s"],
			p.Failed+d.Failed, 100*d.Metrics["bench.trace_overhead_frac"])
	}
	for _, g := range merged.Guards {
		fmt.Fprintf(os.Stderr, "guard %-16s %-5s %s\n", g.Workload, g.Verdict, g.Detail)
		if g.Verdict == "FAIL" {
			status = 1
		}
	}
	b, err := json.MarshalIndent(&merged, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "merged results: %s\n", filepath.Join(outDir, "results.json"))
	return status
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, by the exclusive method (what Python's
// statistics.quantiles(xs, n=4) computes).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return absent
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// runSelfcheck measures every workload in two back-to-back sets of runs of
// this same code (seeds seed..seed+runs-1 in each) and holds the two
// medians of every end-to-end metric against the metric's bound.
func runSelfcheck(seed int64, seconds, runs int) int {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for set := range sets {
		sets[set] = make(map[key][]float64)
		for _, w := range workloads {
			for r := 0; r < runs; r++ {
				res, err := child(w, seed+int64(r), seconds, false, 0, io.Discard)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d steps failed: %s\n",
						w.name, res.Seed, res.Failed, res.Attempted, res.FirstError)
					return 1
				}
				for _, d := range endToEnd {
					k := key{w.name, d.name}
					sets[set][k] = append(sets[set][k], res.Metrics[d.name])
				}
			}
		}
	}
	status := 0
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			verdict := "OK"
			// setup_s is held to its bound on the medians only; its
			// spread within a set is reported but not judged.
			wide := d.name != "setup_s" && (spread(a) > d.bound || spread(b) > d.bound)
			if math.Abs(diff) > d.bound || wide {
				verdict = "UNRESOLVED"
				status = 1
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %6.0f%%  %s\n",
				w.name, d.name, ma, mb, 100*diff, 100*spread(a), 100*spread(b), 100*d.bound, verdict)
		}
	}
	return status
}
