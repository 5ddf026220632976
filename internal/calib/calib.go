// Package calib closes the loop on the paper's cost model: the reuse
// planner and materializer decide everything from predicted costs — Cl(v)
// from the artifact tier's cost.Profile and Cr(v) from the Experiment
// Graph — but nothing in the original system checks those predictions
// against reality. The collector here records, for every fetched or
// executed vertex, the predicted cost next to the measured duration,
// aggregated online per cost family ("load:<tier>", "compute:<op>") with
// count, means, an exponentially-weighted drift signal, and p50/p95 of the
// measured seconds and of the relative error over the family's newest
// samples. A per-request scorecard quantifies optimizer quality: estimated
// time saved by reuse, realized speedup versus the naive all-compute plan,
// and regret when the prediction was wrong. FitProfile turns a load
// family's (size, duration) samples back into a least-squares cost.Profile
// operators can feed into collabd's -profile, completing the calibration
// cycle.
package calib

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DriftThreshold is the drift level above which a cost family is flagged
// in reports: an EWMA relative error of 0.5 means predictions are off by
// 50% on recent observations, enough to distort plan choices.
const DriftThreshold = 0.5

// driftAlpha is the EWMA smoothing factor for the drift signal. 0.2 keeps
// roughly the last ~10 observations dominant.
const driftAlpha = 0.2

// maxFamilies bounds the collector's memory per kind of family: beyond
// this many load (or compute) families, a new one folds into "load:other"
// (or "compute:other") instead of growing the map without bound. Both
// kinds of name are caller-controlled — operation names carry parameters,
// fetch tiers arrive from the wire — and the kinds are bounded apart so
// that many of one can never push the other into a family of the wrong
// kind.
const maxFamilies = 64

// sampleCap is how many of its newest observations a family keeps: the
// window its quantiles cover and FitProfile reads.
const sampleCap = 512

// minFloor guards divisions by near-zero measured durations.
const minFloor = 1e-9

// Sample is one observation a family keeps: the artifact size (0 for
// compute), the measured duration, and the relative error of its
// prediction.
type Sample struct {
	Bytes     float64
	ActualSec float64
	RelErr    float64
}

// family aggregates predicted-vs-actual for one cost family.
type family struct {
	count        int64
	predictedSum float64
	actualSum    float64
	bytesSum     float64
	relErrSum    float64
	drift        float64

	// samples keeps the newest sampleCap observations: the quantiles of
	// Snapshot and, for a load family, FitProfile's input.
	samples *obs.Ring[Sample]
}

// observe folds one (predicted, actual) pair into the family.
func (f *family) observe(bytes, predictedSec, actualSec float64) {
	f.count++
	f.predictedSum += predictedSec
	f.actualSum += actualSec
	f.bytesSum += bytes
	denom := actualSec
	if denom < minFloor {
		denom = minFloor
	}
	relErr := predictedSec - actualSec
	if relErr < 0 {
		relErr = -relErr
	}
	relErr /= denom
	f.relErrSum += relErr
	if f.count == 1 {
		f.drift = relErr
	} else {
		f.drift = driftAlpha*relErr + (1-driftAlpha)*f.drift
	}
	f.samples.Add(Sample{Bytes: bytes, ActualSec: actualSec, RelErr: relErr})
}

// Collector aggregates calibration observations. The zero value is not
// ready; use NewCollector. All methods are safe for concurrent use. It has
// three writers (ObserveLoad, ObserveCompute, RecordScorecard) and one
// reader, Snapshot.
type Collector struct {
	mu       sync.Mutex
	families map[string]*family
	// perKind counts the families of each kind ("load", "compute").
	perKind map[string]int

	runs        int64
	wallSum     float64
	savedSum    float64
	fetchSum    float64
	lastSpeedup float64
	last        *Scorecard
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{families: make(map[string]*family), perKind: make(map[string]int, 2)}
}

// tierFamily normalizes a fetch tier label into a load family name. Labels
// like "remote:disk" (client-side transfer from a server disk tier)
// collapse to the transfer medium, which is what the cost profile priced.
func tierFamily(tier string) string {
	if i := strings.IndexByte(tier, ':'); i >= 0 {
		tier = tier[:i]
	}
	if tier == "" {
		tier = "unknown"
	}
	return "load:" + tier
}

// opFamily normalizes an operation name into a compute family name.
func opFamily(op string) string {
	if op == "" {
		op = "other"
	}
	return "compute:" + op
}

// ObserveLoad records one artifact fetch: predicted Cl from the planner
// against the measured fetch duration, keyed by the tier the bytes came
// from.
func (c *Collector) ObserveLoad(tier string, sizeBytes int64, predicted, actual time.Duration) {
	c.observe(tierFamily(tier), float64(sizeBytes), predicted.Seconds(), actual.Seconds())
}

// ObserveCompute records one vertex execution: the EG's predicted compute
// time t(v) against the measured duration, keyed by operation family.
func (c *Collector) ObserveCompute(op string, predicted, actual time.Duration) {
	c.observe(opFamily(op), 0, predicted.Seconds(), actual.Seconds())
}

func (c *Collector) observe(key string, bytes, predictedSec, actualSec float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.families[key]
	if f == nil {
		kind, _, _ := strings.Cut(key, ":")
		if c.perKind[kind] >= maxFamilies {
			key = kind + ":other"
			f = c.families[key]
		}
		if f == nil {
			// A new family, or the kind's first overflow opening
			// "<kind>:other" one past the cap.
			f = &family{samples: obs.NewRing[Sample](sampleCap)}
			c.families[key] = f
			c.perKind[kind]++
		}
	}
	f.observe(bytes, predictedSec, actualSec)
}

// RecordScorecard folds one request's scorecard into the running totals
// and keeps it as the most recent card.
func (c *Collector) RecordScorecard(sc Scorecard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	c.savedSum += sc.EstimatedSavedSec
	c.fetchSum += sc.FetchActualSec
	c.wallSum += sc.WallSec
	if sc.Speedup > 0 {
		c.lastSpeedup = sc.Speedup
	}
	c.last = &sc
}
