package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// absent marks a layer metric whose signal was not there to read: a scraped
// family a later PR renamed, a stats field that is gone, or a measurement
// that does not apply to the workload. It is carried as NaN inside the
// benchmark and printed as -1 ("n/a" in the table), never as a failure.
var absent = math.NaN()

// median returns the middle value of xs (mean of the two middle values for
// an even count); absent for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return absent
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return absent
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a report may quote, in tenths of a
// percent, lowest first.
var tailCandidates = []int{900, 950, 990, 999}

// supportedTail returns the highest candidate percentile that still has at
// least ten of the n samples beyond it, or 0 when even the lowest has not:
// a tail quoted from fewer than ten samples is an anecdote.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		rank := (n*p + 999) / 1000 // nearest rank, rounded up
		if n-rank >= 10 {
			best = float64(p) / 10
		}
	}
	return best
}

// p95 returns the 95th percentile of xs when the sample supports it, else
// absent.
func p95(xs []float64) float64 {
	if supportedTail(len(xs)) < 95 {
		return absent
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 95)
}

// parseProm reads the Prometheus text format into series → value, keyed by
// the series exactly as printed (`name` or `name{label="v",...}`).
func parseProm(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// flattenJSON reads a JSON object into dotted-path → number, so
// `{"Pool":{"calls":3}}` yields "Pool.calls". Non-numeric leaves are
// dropped.
func flattenJSON(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	var root map[string]any
	if err := json.NewDecoder(r).Decode(&root); err != nil {
		return out
	}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case float64:
			out[prefix] = t
		case map[string]any:
			for k, child := range t {
				walk(prefix+"."+k, child)
			}
		}
	}
	for k, v := range root {
		walk(k, v)
	}
	return out
}

// scrape is one reading of the server's two counter surfaces.
type scrape struct {
	stats map[string]float64 // /v1/stats, flattened
	prom  map[string]float64 // /metrics
}

// get returns the named series from whichever surface has it.
func (s scrape) get(key string) (float64, bool) {
	if v, ok := s.stats[key]; ok {
		return v, true
	}
	v, ok := s.prom[key]
	return v, ok
}

// gauge returns the value of key in s, or absent.
func (s scrape) gauge(key string) float64 {
	if v, ok := s.get(key); ok {
		return v
	}
	return absent
}

// scrapeDelta is the change of the server's counters across a phase.
type scrapeDelta struct{ before, after scrape }

// counter returns after − before for key, or absent when either reading
// lacks it.
func (d scrapeDelta) counter(key string) float64 {
	a, okA := d.after.get(key)
	b, okB := d.before.get(key)
	if !okA || !okB {
		return absent
	}
	return a - b
}

// ratio divides, yielding absent for a zero or absent denominator.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) || math.IsNaN(num) {
		return absent
	}
	return num / den
}
