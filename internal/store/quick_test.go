package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/tier"
)

// TestQuickPhysicalBytesMatchReferenceModel drives the store with a random
// put/evict sequence over artifacts sharing a column pool and checks the
// deduplicated accounting against a naive reference model.
func TestQuickPhysicalBytesMatchReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Column pool: 6 shared columns of one common length (frames
		// require equal-length columns).
		rows := 1 + rng.Intn(16)
		pool := make([]*data.Column, 6)
		for j := range pool {
			pool[j] = data.NewFloatColumn(fmt.Sprintf("c%d", j), make([]float64, rows))
		}
		m := New(cost.Memory())
		// Reference: which artifact holds which column IDs.
		held := make(map[string][]string)
		colSize := make(map[string]int64)
		for _, c := range pool {
			colSize[c.ID] = c.SizeBytes()
		}
		for step := 0; step < 40; step++ {
			id := fmt.Sprintf("v%d", rng.Intn(10))
			if rng.Intn(3) == 0 {
				m.Evict(id)
				delete(held, id)
			} else if _, ok := held[id]; !ok {
				// random subset of the pool, ≥1 column
				var cols []*data.Column
				var ids []string
				for _, c := range pool {
					if rng.Intn(2) == 0 {
						cols = append(cols, c)
						ids = append(ids, c.ID)
					}
				}
				if len(cols) == 0 {
					cols = pool[:1]
					ids = []string{pool[0].ID}
				}
				if err := m.Put(id, &graph.DatasetArtifact{Frame: data.MustNewFrame(cols...)}); err != nil {
					return false
				}
				held[id] = ids
			}
			// reference physical = union of held column IDs
			want := int64(0)
			seen := map[string]bool{}
			for _, ids := range held {
				for _, cid := range ids {
					if !seen[cid] {
						seen[cid] = true
						want += colSize[cid]
					}
				}
			}
			if m.PhysicalBytes() != want {
				return false
			}
			if m.Len() != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickTieredBytesMatchReferenceModel drives a tiered manager with a
// random put/get/demote/evict sequence over artifacts sharing a column pool
// and checks per-tier deduplicated physical bytes against a reference model
// at every step. The model mirrors the inclusive-tier contract: Demote
// spills to disk and drops the memory copy; Get on a disk resident promotes
// while keeping the disk copy; Evict clears both tiers.
func TestQuickTieredBytesMatchReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(16)
		pool := make([]*data.Column, 6)
		for j := range pool {
			pool[j] = data.NewFloatColumn(fmt.Sprintf("c%d", j), make([]float64, rows))
		}
		colSize := make(map[string]int64)
		for _, c := range pool {
			colSize[c.ID] = c.SizeBytes()
		}
		dir := t.TempDir()
		d, _, err := tier.Open(dir)
		if err != nil {
			return false
		}
		// Unbudgeted: tier moves happen only through explicit ops, so the
		// reference model stays exact.
		m := NewTiered(cost.Memory(), Options{Disk: d})
		// Reference: column IDs held per artifact, per tier.
		memHeld := make(map[string][]string)
		diskHeld := make(map[string][]string)
		union := func(held map[string][]string) int64 {
			var sum int64
			seen := map[string]bool{}
			for _, ids := range held {
				for _, cid := range ids {
					if !seen[cid] {
						seen[cid] = true
						sum += colSize[cid]
					}
				}
			}
			return sum
		}
		for step := 0; step < 60; step++ {
			id := fmt.Sprintf("v%d", rng.Intn(8))
			switch rng.Intn(5) {
			case 0: // evict from all tiers
				m.Evict(id)
				delete(memHeld, id)
				delete(diskHeld, id)
			case 1: // demote memory → disk
				err := m.Demote(id)
				if ids, inMem := memHeld[id]; inMem {
					if err != nil {
						return false
					}
					diskHeld[id] = ids
					delete(memHeld, id)
				} else if err == nil {
					return false // demoting a non-resident must fail
				}
			case 2: // get: promotes a disk resident, keeps the disk copy
				a, tr := m.Get(id)
				if ids, onDisk := diskHeld[id]; onDisk {
					if _, inMem := memHeld[id]; !inMem {
						if a == nil || tr != TierDisk {
							return false
						}
						memHeld[id] = ids
					} else if tr != TierMemory {
						return false
					}
				} else if _, inMem := memHeld[id]; inMem {
					if tr != TierMemory {
						return false
					}
				} else if a != nil || tr != TierNone {
					return false
				}
			default: // put a random subset of the pool (no-op when present)
				if _, inMem := memHeld[id]; inMem {
					continue
				}
				if _, onDisk := diskHeld[id]; onDisk {
					continue
				}
				var cols []*data.Column
				var ids []string
				for _, c := range pool {
					if rng.Intn(2) == 0 {
						cols = append(cols, c)
						ids = append(ids, c.ID)
					}
				}
				if len(cols) == 0 {
					cols = pool[:1]
					ids = []string{pool[0].ID}
				}
				if err := m.Put(id, &graph.DatasetArtifact{Frame: data.MustNewFrame(cols...)}); err != nil {
					return false
				}
				memHeld[id] = ids
			}
			// Per-tier physical bytes must match the reference unions.
			if m.MemoryBytes() != union(memHeld) {
				return false
			}
			if m.DiskBytes() != union(diskHeld) {
				return false
			}
			// Artifact count is the union across tiers.
			n := len(memHeld)
			for id := range diskHeld {
				if _, inMem := memHeld[id]; !inMem {
					n++
				}
			}
			if m.Len() != n {
				return false
			}
			for id := range memHeld {
				if m.TierOf(id) != TierMemory {
					return false
				}
			}
			for id := range diskHeld {
				if _, inMem := memHeld[id]; !inMem && m.TierOf(id) != TierDisk {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickGetReturnsWhatWasPut: any stored dataset round-trips with
// identical column IDs, names and lengths.
func TestQuickGetReturnsWhatWasPut(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(cost.Memory())
		nCols := 1 + rng.Intn(5)
		cols := make([]*data.Column, nCols)
		rows := 1 + rng.Intn(10)
		for j := range cols {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = rng.Float64()
			}
			cols[j] = data.NewFloatColumn(fmt.Sprintf("c%d", j), vals)
		}
		f := data.MustNewFrame(cols...)
		if err := m.Put("v", &graph.DatasetArtifact{Frame: f}); err != nil {
			return false
		}
		got, ok := get(m, "v").(*graph.DatasetArtifact)
		if !ok || got.Frame.NumRows() != rows || got.Frame.NumCols() != nCols {
			return false
		}
		for j, c := range got.Frame.Columns() {
			if c.ID != cols[j].ID || c.Name != cols[j].Name {
				return false
			}
			for i := range c.Floats {
				if c.Floats[i] != cols[j].Floats[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
