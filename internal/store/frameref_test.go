package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tier"
)

// refPool builds a pool of equal-length columns of every dtype, each with a
// distinct lineage ID.
func refPool(rng *rand.Rand, rows int) []*data.Column {
	floats, ints := make([]float64, rows), make([]int64, rows)
	strs, bools := make([]string, rows), make([]bool, rows)
	for i := 0; i < rows; i++ {
		floats[i], ints[i] = rng.NormFloat64(), rng.Int63n(100)
		strs[i], bools[i] = fmt.Sprintf("s%d", rng.Intn(4)), rng.Intn(2) == 0
	}
	pool := []*data.Column{
		data.NewIntColumn("i", ints),
		data.NewStringColumn("s", strs),
		data.NewStringColumn("d", strs).DictEncoded(),
		data.NewBoolColumn("b", bools),
	}
	pool[2] = pool[2].WithID(data.SourceID("", "d"))
	for j := 0; j < 6; j++ {
		shifted := make([]float64, rows)
		for i := range shifted {
			shifted[i] = floats[i] + float64(j)
		}
		pool = append(pool, data.NewFloatColumn(fmt.Sprintf("f%d", j), shifted))
	}
	return pool
}

// recordsOf returns the records of cols, as an upload supplies them.
func recordsOf(t testing.TB, cols []*data.Column) []tier.Record {
	t.Helper()
	var out []tier.Record
	for _, c := range cols {
		r, err := tier.RecordOf(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// colRefs counts, for each column the memory tier holds, the memory-resident
// manifests naming it.
func colRefs(m *Manager) map[string]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int, len(m.cols))
	for _, id := range m.mem.IDs() {
		man, _ := m.mem.Frame(id)
		for _, c := range man.ColIDs {
			out[c]++
		}
	}
	return out
}

func sameArtifact(a, b graph.Artifact) bool {
	da, oka := a.(*graph.DatasetArtifact)
	db, okb := b.(*graph.DatasetArtifact)
	if !oka || !okb {
		return a == nil && b == nil
	}
	ca, cb := da.Frame.Columns(), db.Frame.Columns()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		// Content is the exported fields. The memoised quantile view is
		// not: a copy made by withName carries a memo, an original none.
		x, y := ca[i], cb[i]
		if x.ID != y.ID || x.Name != y.Name || x.Type != y.Type ||
			!reflect.DeepEqual(x.Floats, y.Floats) || !reflect.DeepEqual(x.Ints, y.Ints) ||
			!reflect.DeepEqual(x.Strings, y.Strings) || !reflect.DeepEqual(x.Bools, y.Bools) ||
			!reflect.DeepEqual(x.Dict, y.Dict) || !reflect.DeepEqual(x.Codes, y.Codes) {
			return false
		}
	}
	return true
}

// sameState compares everything PutFrameRef promises to leave as Put does.
func sameState(whole, byRef *Manager, ids []string) error {
	if a, b := whole.PhysicalBytes(), byRef.PhysicalBytes(); a != b {
		return fmt.Errorf("physical bytes %d vs %d", a, b)
	}
	if a, b := whole.LogicalBytes(), byRef.LogicalBytes(); a != b {
		return fmt.Errorf("logical bytes %d vs %d", a, b)
	}
	if a, b := whole.DiskBytes(), byRef.DiskBytes(); a != b {
		return fmt.Errorf("disk bytes %d vs %d", a, b)
	}
	if a, b := colRefs(whole), colRefs(byRef); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("column refs %v vs %v", a, b)
	}
	for _, id := range ids {
		if a, b := whole.TierOf(id), byRef.TierOf(id); a != b {
			return fmt.Errorf("%s tier %v vs %v", id, a, b)
		}
	}
	return nil
}

// TestQuickPutFrameRefMatchesPut admits the same random frames into two
// managers — whole through Put, split at random into supplied and
// store-held columns through PutFrameRef — under memory budgets that force
// demotion, and requires both to stay indistinguishable: bytes, column
// refs, tiers, counters, what Get returns and what Evict leaves.
func TestQuickPutFrameRefMatchesPut(t *testing.T) {
	var demotions, fromStore int64
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := refPool(rng, 1+rng.Intn(24))
		var poolBytes int64
		for _, c := range pool {
			poolBytes += c.SizeBytes()
		}
		// Between a fifth of the pool and all of it: from "every admission
		// demotes" to "nothing does".
		budget := poolBytes/5 + rng.Int63n(poolBytes)
		var wm, rm struct{ puts, dem, evi obs.Counter }
		whole := NewTiered(cost.Memory(), Options{MemoryBudget: budget, Disk: newDisk(t)})
		whole.Instrument(Metrics{Puts: &wm.puts, Demotions: &wm.dem, Evictions: &wm.evi})
		byRef := NewTiered(cost.Memory(), Options{MemoryBudget: budget, Disk: newDisk(t)})
		byRef.Instrument(Metrics{Puts: &rm.puts, Demotions: &rm.dem, Evictions: &rm.evi})
		wl, rl := obs.NewArtifactLedger(64), obs.NewArtifactLedger(64)
		whole.AttachLedger(wl)
		byRef.AttachLedger(rl)

		var ids []string
		for step := 0; step < 25; step++ {
			id := fmt.Sprintf("v%d", step)
			ids = append(ids, id)
			// A random subset of the pool in random order, some columns
			// carried under another name than the store may know them by.
			var cols []*data.Column
			for _, j := range rng.Perm(len(pool))[:1+rng.Intn(len(pool))] {
				c := pool[j]
				if rng.Intn(4) == 0 {
					c = c.WithID(c.ID)
					c.Name = fmt.Sprintf("%s_v%d", c.Name, step)
				}
				cols = append(cols, c)
			}
			frame := data.MustNewFrame(cols...)
			if err := whole.Put(id, &graph.DatasetArtifact{Frame: frame}); err != nil {
				t.Log(err)
				return false
			}
			// Supply what the store does not hold plus a random part of what
			// it does.
			supply := make(map[int]bool, len(cols))
			for i := range cols {
				supply[i] = true
			}
			for _, i := range byRef.HeldColumns(frame.ColumnIDs()) {
				if supply[i] = rng.Intn(3) == 0; !supply[i] {
					fromStore++
				}
			}
			var supplied []*data.Column
			for i, c := range cols {
				if supply[i] {
					supplied = append(supplied, c)
				}
			}
			if err := byRef.PutFrameRef(id, frame.ColumnIDs(), frame.ColumnNames(), recordsOf(t, supplied)); err != nil {
				t.Log(err)
				return false
			}
			if err := sameState(whole, byRef, ids); err != nil {
				t.Logf("seed %d step %d after put: %v", seed, step, err)
				return false
			}
			// Reads promote from disk; both sides must move alike.
			probe := ids[rng.Intn(len(ids))]
			a, at := whole.Get(probe)
			b, bt := byRef.Get(probe)
			if at != bt || !sameArtifact(a, b) {
				t.Logf("seed %d step %d: Get(%s) differs (%v vs %v)", seed, step, probe, at, bt)
				return false
			}
			if err := sameState(whole, byRef, ids); err != nil {
				t.Logf("seed %d step %d after get: %v", seed, step, err)
				return false
			}
		}
		for _, i := range rng.Perm(len(ids)) {
			whole.Evict(ids[i])
			byRef.Evict(ids[i])
			if err := sameState(whole, byRef, ids); err != nil {
				t.Logf("seed %d after evict %s: %v", seed, ids[i], err)
				return false
			}
		}
		if whole.Len() != 0 || byRef.PhysicalBytes() != 0 || byRef.DiskBytes() != 0 {
			return false
		}
		demotions += rm.dem.Value()
		wTracked, _, _, _ := wl.Totals()
		rTracked, _, _, _ := rl.Totals()
		return wm.puts.Value() == rm.puts.Value() && wm.dem.Value() == rm.dem.Value() &&
			wm.evi.Value() == rm.evi.Value() && wTracked == rTracked
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if demotions == 0 || fromStore == 0 {
		t.Errorf("the property was not exercised: %d demotions, %d columns taken from the store", demotions, fromStore)
	}
	t.Logf("%d demotions, %d columns taken from the store", demotions, fromStore)
}

// TestPutFrameRefRejectsWithoutAdmitting: every refusal leaves the store
// exactly as it was.
func TestPutFrameRefRejectsWithoutAdmitting(t *testing.T) {
	rows := 8
	a := data.NewFloatColumn("a", make([]float64, rows))
	b := data.NewFloatColumn("b", make([]float64, rows))
	short := data.NewFloatColumn("short", make([]float64, rows-1))
	m := New(cost.Memory())
	if err := m.Put("base", &graph.DatasetArtifact{Frame: data.MustNewFrame(a)}); err != nil {
		t.Fatal(err)
	}
	stranger := data.NewFloatColumn("stranger", make([]float64, rows))
	aAsInts := data.NewIntColumn("a", make([]int64, rows))
	cases := []struct {
		name     string
		ids      []string
		names    []string
		supplied []*data.Column
		want     error
	}{
		{"absent column", []string{a.ID, b.ID}, []string{"a", "b"}, nil, ErrColumnAbsent},
		{"empty manifest", nil, nil, nil, ErrBadManifest},
		{"names shorter than ids", []string{a.ID, b.ID}, []string{"a"}, []*data.Column{b}, ErrBadManifest},
		{"supplied column not in manifest", []string{a.ID}, []string{"a"}, []*data.Column{stranger}, ErrBadManifest},
		{"column supplied twice", []string{a.ID, b.ID}, []string{"a", "b"}, []*data.Column{b, b}, ErrBadManifest},
		{"dtype differs from held column", []string{a.ID}, []string{"a"}, []*data.Column{aAsInts}, ErrBadManifest},
		{"row count differs from held column", []string{a.ID, short.ID}, []string{"a", "short"}, []*data.Column{short}, ErrBadManifest},
		{"duplicate names", []string{a.ID, b.ID}, []string{"x", "x"}, []*data.Column{b}, ErrBadManifest},
	}
	for _, tc := range cases {
		err := m.PutFrameRef("v", tc.ids, tc.names, recordsOf(t, tc.supplied))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if m.Has("v") || m.Len() != 1 || m.PhysicalBytes() != a.SizeBytes() || colRefs(m)[a.ID] != 1 {
			t.Fatalf("%s: refusal changed the store", tc.name)
		}
	}
	// The same vertex goes in once the absent column is supplied, and a
	// second admission of it is a no-op.
	for i := 0; i < 2; i++ {
		if err := m.PutFrameRef("v", []string{a.ID, b.ID}, []string{"a", "b"}, recordsOf(t, []*data.Column{b})); err != nil {
			t.Fatal(err)
		}
	}
	if refs := colRefs(m); refs[a.ID] != 2 || refs[b.ID] != 1 {
		t.Fatalf("column refs after admission: %v", refs)
	}
}

// TestPutRefusesAColumnThatContradictsTheHeldOne: an in-process Put of a
// frame whose column shares its lineage ID with a held column of another
// row count or type is refused as PutFrameRef refuses it, and leaves the
// store as it was — not admitted as a vertex that Has reports and Get
// cannot assemble.
func TestPutRefusesAColumnThatContradictsTheHeldOne(t *testing.T) {
	a := data.NewFloatColumn("a", []float64{1, 2, 3})
	m := New(cost.Memory())
	if err := m.Put("base", &graph.DatasetArtifact{Frame: data.MustNewFrame(a)}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*data.Column{
		"fewer rows": data.NewFloatColumn("a", []float64{1, 2}),
		"more rows":  data.NewFloatColumn("a", []float64{1, 2, 3, 4}),
		"other type": data.NewIntColumn("a", []int64{1, 2, 3}).WithID(a.ID),
	} {
		err := m.Put("v", &graph.DatasetArtifact{Frame: data.MustNewFrame(c)})
		if !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: err = %v, want %v", name, err, ErrBadManifest)
		}
		if m.Has("v") || m.Len() != 1 || m.PhysicalBytes() != a.SizeBytes() || colRefs(m)[a.ID] != 1 {
			t.Fatalf("%s: refusal changed the store", name)
		}
	}
	if got, _ := m.Get("base"); !sameArtifact(got, &graph.DatasetArtifact{Frame: data.MustNewFrame(a)}) {
		t.Error("the held frame changed")
	}
}

// TestPutFrameRefTakesDemotedColumnsFromDisk: a column that only a demoted
// frame references is still held, so a client told so need not resend it.
func TestPutFrameRefTakesDemotedColumnsFromDisk(t *testing.T) {
	a := data.NewFloatColumn("a", []float64{1, 2, 3})
	b := data.NewFloatColumn("b", []float64{4, 5, 6})
	m := NewTiered(cost.Memory(), Options{Disk: newDisk(t)})
	if err := m.Put("old", &graph.DatasetArtifact{Frame: data.MustNewFrame(a)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("old"); err != nil {
		t.Fatal(err)
	}
	ids := []string{a.ID, b.ID}
	if held := m.HeldColumns(ids); !reflect.DeepEqual(held, []int{0}) {
		t.Fatalf("HeldColumns = %v, want [0]", held)
	}
	if err := m.PutFrameRef("new", ids, []string{"a", "b"}, recordsOf(t, []*data.Column{b})); err != nil {
		t.Fatal(err)
	}
	got, _ := peek(t, m, "new")
	want := &graph.DatasetArtifact{Frame: data.MustNewFrame(a, b)}
	if !sameArtifact(got, want) {
		t.Fatal("frame assembled from disk differs from the original")
	}
	// Once the last frame referencing it is gone from every tier, it is not.
	m.Evict("old")
	m.Evict("new")
	if held := m.HeldColumns(ids); len(held) != 0 {
		t.Fatalf("HeldColumns after eviction = %v, want none", held)
	}
	if err := m.PutFrameRef("again", ids, []string{"a", "b"}, recordsOf(t, []*data.Column{b})); !errors.Is(err, ErrColumnAbsent) {
		t.Fatalf("err = %v, want ErrColumnAbsent", err)
	}
}
