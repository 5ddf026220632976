package store

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/tier"
)

func benchFrame(id string, rows int) *graph.DatasetArtifact {
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = float64(i)
	}
	return &graph.DatasetArtifact{
		Frame: data.MustNewFrame(
			data.NewFloatColumn(id+"-a", vals),
			data.NewFloatColumn(id+"-b", vals),
		),
	}
}

// BenchmarkDemote measures spilling a 2-column frame to the disk tier
// (codec encode + checksummed atomic writes + manifest).
func BenchmarkDemote(b *testing.B) {
	for _, rows := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d, _, err := tier.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			m := NewTiered(cost.Memory(), Options{Disk: d})
			a := benchFrame("v", rows)
			b.SetBytes(a.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Put("v", a); err != nil {
					b.Fatal(err)
				}
				if err := m.Demote("v"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				m.Evict("v") // clear both tiers so the next spill is real
				b.StartTimer()
			}
		})
	}
}

// BenchmarkPromote measures a disk-tier Get: checksum verification + codec
// decode + reassembly + memory-tier admission.
func BenchmarkPromote(b *testing.B) {
	for _, rows := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d, _, err := tier.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			m := NewTiered(cost.Memory(), Options{Disk: d})
			a := benchFrame("v", rows)
			if err := m.Put("v", a); err != nil {
				b.Fatal(err)
			}
			if err := m.Demote("v"); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(a.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, tr := m.Get("v")
				if got == nil || tr != TierDisk {
					b.Fatalf("want disk hit, got %v", tr)
				}
				b.StopTimer()
				// Inclusive tiers: drop the memory copy only (disk copy
				// remains), so every iteration is a true disk fetch.
				if err := m.Demote("v"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDiskFetchVsRecompute contrasts loading a materialized artifact
// from the disk tier against recomputing it (the planner's Cl_disk(v) vs
// Cr(v) decision): the "recompute" arm rebuilds the same frame from raw
// values, modeling a cheap derivation.
func BenchmarkDiskFetchVsRecompute(b *testing.B) {
	const rows = 1 << 14
	b.Run("disk-fetch", func(b *testing.B) {
		d, _, err := tier.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		m := NewTiered(cost.Memory(), Options{Disk: d})
		if err := m.Put("v", benchFrame("v", rows)); err != nil {
			b.Fatal(err)
		}
		if err := m.Demote("v"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, tr := m.Get("v")
			if got == nil || tr != TierDisk {
				b.Fatalf("want disk hit, got %v", tr)
			}
			b.StopTimer()
			if err := m.Demote("v"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("recompute-cheap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := benchFrame("v", rows)
			// Touch a value so the build isn't dead code.
			if a.Frame.Columns()[0].Floats[rows-1] != float64(rows-1) {
				b.Fatal("bad frame")
			}
		}
	})
	// The expensive derivation: retraining a model on the frame. This is the
	// side where Cl_disk(v) < Cr(v) and the planner loads from disk.
	b.Run("recompute-train", func(b *testing.B) {
		a := benchFrame("v", rows)
		x := make([][]float64, rows)
		y := make([]float64, rows)
		for i := range x {
			x[i] = []float64{a.Frame.Columns()[0].Floats[i]}
			y[i] = float64(i % 2)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := ml.NewLogisticRegression(1)
			if err := m.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvictUnderBudget measures one admission into a full memory-only
// manager holding 10 k entries: every Put pushes the coldest entry out, so
// the cost of picking the victim is on the path of every operation (the
// remote client's session store under a tight budget).
func BenchmarkEvictUnderBudget(b *testing.B) {
	const entries = 10000
	agg := &graph.AggregateArtifact{Value: 1}
	m := NewTiered(cost.Memory(), Options{MemoryBudget: entries * agg.SizeBytes()})
	for i := 0; i < entries; i++ {
		if err := m.Put(fmt.Sprintf("warm-%d", i), agg); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("v-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Put(ids[i], agg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if mem, _ := m.TierCounts(); mem != entries {
		b.Fatalf("memory tier holds %d entries, want %d", mem, entries)
	}
}
