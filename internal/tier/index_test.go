package tier

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/graph"
)

// TestQuickReopenedTierHasTheRunningIndex drives a disk tier with random
// PutFrame, PutBlob and Evict calls over frames that share a column pool,
// some columns under other names, then corrupts the one column only a last
// frame names and reads that frame through Get. Open over the same directory
// must rebuild the running tier's index: the same stored IDs, logical sizes,
// physical bytes and held columns, nothing to quarantine, and as orphans
// exactly the columns the read-failure drop freed — Evict deletes the files
// of the columns it frees, the drop leaves them to Open.
func TestQuickReopenedTierHasTheRunningIndex(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		pool := make([]*data.Column, 6)
		for j := range pool {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = float64(rng.Intn(4))
			}
			pool[j] = data.NewFloatColumn(fmt.Sprintf("c%d", j), vals)
		}
		frame := func() []*data.Column {
			var cols []*data.Column
			for _, c := range pool {
				switch rng.Intn(3) {
				case 0:
					cols = append(cols, c)
				case 1:
					alias := c.WithID(c.ID)
					alias.Name += "-alias"
					cols = append(cols, alias)
				}
			}
			return cols
		}
		dir := t.TempDir()
		d, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			vid := fmt.Sprintf("v%d", rng.Intn(8))
			switch rng.Intn(4) {
			case 0:
				d.Evict(vid)
			case 1:
				err = d.PutBlob(vid, &graph.AggregateArtifact{Value: float64(step), Text: vid})
			default:
				if cols := frame(); len(cols) > 0 {
					err = putColumns(d, vid, cols)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		only := data.NewFloatColumn("only", make([]float64, rows))
		cols := append(frame(), only)
		if err := putColumns(d, "torn", cols); err != nil {
			t.Fatal(err)
		}
		path := d.colPath(only.ID)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get("torn"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a corrupt column read as %v", err)
		}
		freed := 0 // columns the drop freed whose files it left
		for _, c := range cols[:len(cols)-1] {
			if !d.HasColumn(c.ID) {
				freed++
			}
		}

		re, rep, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ids := d.StoredIDs()
		if got := re.StoredIDs(); !reflect.DeepEqual(got, ids) {
			t.Logf("seed %d: reopened with %v, ran with %v", seed, got, ids)
			return false
		}
		for _, id := range ids {
			if a, b := d.LogicalSize(id), re.LogicalSize(id); a != b {
				t.Logf("seed %d: %s is %d bytes reopened, %d running", seed, id, b, a)
				return false
			}
		}
		for _, c := range append(pool, only) {
			if a, b := d.HasColumn(c.ID), re.HasColumn(c.ID); a != b {
				t.Logf("seed %d: column %s held %v reopened, %v running", seed, c.Name, b, a)
				return false
			}
		}
		if a, b := d.PhysicalBytes(), re.PhysicalBytes(); a != b || rep.OrphanColumns != freed || rep.Quarantined != 0 {
			t.Logf("seed %d: physical %d reopened, %d running; %d orphans, want %d; %d quarantined",
				seed, b, a, rep.OrphanColumns, freed, rep.Quarantined)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
