package calib

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// FamilyReport is the rendered aggregate for one cost family.
type FamilyReport struct {
	Name             string  `json:"name"`
	Count            int64   `json:"count"`
	PredictedMeanSec float64 `json:"predicted_mean_sec"`
	ActualMeanSec    float64 `json:"actual_mean_sec"`
	ActualP50Sec     float64 `json:"actual_p50_sec"`
	ActualP95Sec     float64 `json:"actual_p95_sec"`
	MeanAbsRelErr    float64 `json:"mean_abs_rel_err"`
	RelErrP50        float64 `json:"rel_err_p50"`
	RelErrP95        float64 `json:"rel_err_p95"`
	Drift            float64 `json:"drift"`
	// BytesMean is the mean artifact size (load families only).
	BytesMean float64 `json:"bytes_mean,omitempty"`
}

// ProfileFit is a least-squares-refitted profile for one load tier.
type ProfileFit struct {
	Tier           string  `json:"tier"`
	Samples        int     `json:"samples"`
	Latency        string  `json:"latency"`
	BytesPerSecond float64 `json:"bytes_per_second"`
}

// Report is a point-in-time snapshot of the collector, renderable as
// byte-stable JSON (for /v1/calibration and its golden test) or as text
// (for the CLI).
type Report struct {
	Families []FamilyReport `json:"families"`
	// DriftFlagged lists families whose drift exceeds DriftThreshold.
	DriftFlagged []string `json:"drift_flagged,omitempty"`
	// Fits holds refitted profiles for load tiers with enough samples.
	Fits []ProfileFit `json:"fits,omitempty"`

	Runs                   int64      `json:"runs"`
	WallSecTotal           float64    `json:"wall_sec_total"`
	EstimatedSavedSecTotal float64    `json:"estimated_saved_sec_total"`
	FetchActualSecTotal    float64    `json:"fetch_actual_sec_total"`
	LastSpeedup            float64    `json:"last_speedup"`
	LastRun                *Scorecard `json:"last_run,omitempty"`
}

// Snapshot is the collector's one reader: /v1/calibration renders it and
// /v1/stats sums it. Families and flags are sorted by name so identical
// collector states render identical bytes.
func (c *Collector) Snapshot() *Report {
	r := &Report{Families: []FamilyReport{}}
	type famSnap struct {
		name    string
		f       family // scalar fields copied under the lock
		samples []Sample
	}
	c.mu.Lock()
	snaps := make([]famSnap, 0, len(c.families))
	for name, f := range c.families {
		s := famSnap{name: name, f: *f}
		if len(f.samples) > 0 {
			s.samples = append([]Sample(nil), f.samples...)
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })
	r.Runs = c.runs
	r.WallSecTotal = c.wallSum
	r.EstimatedSavedSecTotal = c.savedSum
	r.FetchActualSecTotal = c.fetchSum
	r.LastSpeedup = c.lastSpeedup
	if c.last != nil {
		copied := *c.last
		r.LastRun = &copied
	}
	c.mu.Unlock()

	// Sketch quantiles take the sketch's own lock; computed outside the
	// collector lock to keep lock ordering trivial.
	for _, s := range snaps {
		f := &s.f
		fr := FamilyReport{
			Name:         s.name,
			Count:        f.count,
			ActualP50Sec: f.actual.Quantile(0.50),
			ActualP95Sec: f.actual.Quantile(0.95),
			RelErrP50:    f.relErr.Quantile(0.50),
			RelErrP95:    f.relErr.Quantile(0.95),
			Drift:        f.drift,
		}
		if f.count > 0 {
			n := float64(f.count)
			fr.PredictedMeanSec = f.predictedSum / n
			fr.ActualMeanSec = f.actualSum / n
			fr.MeanAbsRelErr = f.relErrSum / n
			fr.BytesMean = f.bytesSum / n
		}
		r.Families = append(r.Families, fr)
		if fr.Drift > DriftThreshold {
			r.DriftFlagged = append(r.DriftFlagged, s.name)
		}
		if tier, ok := strings.CutPrefix(s.name, "load:"); ok {
			if prof, ok := FitProfile(tier, s.samples); ok {
				r.Fits = append(r.Fits, ProfileFit{
					Tier:           tier,
					Samples:        len(s.samples),
					Latency:        prof.Latency.String(),
					BytesPerSecond: prof.BytesPerSecond,
				})
			}
		}
	}
	return r
}

// WriteJSON renders the report as indented JSON ending in a newline. The
// rendering is byte-stable for a given report.
func (r *Report) WriteJSON(w io.Writer) error { return obs.WriteJSON(w, r) }

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("calibration: %d run(s), %.3fs wall total\n", r.Runs, r.WallSecTotal)
	bw.printf("reuse: %.3fs estimated saved, %.3fs spent fetching, last speedup %.2fx\n",
		r.EstimatedSavedSecTotal, r.FetchActualSecTotal, r.LastSpeedup)
	if len(r.Families) == 0 {
		bw.printf("no observations yet (run a workload first)\n")
		return bw.err
	}
	bw.printf("%-24s %8s %14s %14s %10s %8s\n",
		"family", "count", "pred mean", "actual mean", "relerr", "drift")
	for _, f := range r.Families {
		flag := ""
		if f.Drift > DriftThreshold {
			flag = "  DRIFT"
		}
		bw.printf("%-24s %8d %13.6fs %13.6fs %10.3f %8.3f%s\n",
			f.Name, f.Count, f.PredictedMeanSec, f.ActualMeanSec,
			f.MeanAbsRelErr, f.Drift, flag)
	}
	// Where the measured compute time went, largest family first: the
	// kernel to look inside before any other.
	type opTime struct {
		name string
		sec  float64
	}
	var ops []opTime
	var computeSec float64
	for _, f := range r.Families {
		if strings.HasPrefix(f.Name, "compute:") && f.Count > 0 {
			sec := f.ActualMeanSec * float64(f.Count)
			ops = append(ops, opTime{f.Name, sec})
			computeSec += sec
		}
	}
	if computeSec > 0 {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].sec > ops[j].sec })
		bw.printf("measured compute: %.3fs\n", computeSec)
		for _, o := range ops {
			bw.printf("  %-22s %13.6fs %6.1f%%\n", o.name, o.sec, 100*o.sec/computeSec)
		}
	}
	for _, fit := range r.Fits {
		bw.printf("fit %-20s latency=%s bandwidth=%.0f B/s (%d samples)\n",
			fit.Tier, fit.Latency, fit.BytesPerSecond, fit.Samples)
	}
	if len(r.DriftFlagged) > 0 {
		bw.printf("drift flagged (>%.2f): %s\n", DriftThreshold, strings.Join(r.DriftFlagged, ", "))
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
