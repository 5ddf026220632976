package persist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

func isTorn(err error) bool { return errors.Is(err, ErrTorn) }

// newTieredServer opens the disk tier under dir and builds a server whose
// store demotes to it under the given memory budget.
func newTieredServer(t *testing.T, dir string, memBudget int64) (*core.Server, *tier.Report) {
	t.Helper()
	d, rep, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(cost.Memory(), store.Options{
		MemoryBudget: memBudget,
		Disk:         d,
		// A fast-SSD profile: the test artifacts are tiny, so the default
		// 3 ms disk latency would make recomputing micro-operators cheaper
		// than loading and the planner would rightly recompute. Recovery
		// semantics are under test here; tier *pricing* is covered by
		// internal/reuse's TestPlannerPricesArtifactTier.
		DiskProfile: cost.Profile{Name: "disk", Latency: 10 * time.Microsecond, BytesPerSecond: 2 << 30},
	})
	return core.NewServer(st, core.WithBudget(1<<30)), rep
}

// TestCrashRecoveryServesFromDiskTier is the tentpole's end-to-end
// acceptance scenario: populate a tiered store (a tight memory budget
// demotes artifacts to disk during the run), checkpoint the EG, hard-stop
// (no flush, no graceful close), restart a fresh server at the same store
// directory, and re-run the same workload — every artifact must be served
// from the store (checksums verified at boot) with zero recomputation.
func TestCrashRecoveryServesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	frame := testFrame(200)

	// Session 1: a 2 KiB memory budget forces demotion of the ~1.6 KiB
	// dataset artifacts as the run progresses.
	srv1, _ := newTieredServer(t, dir, 2<<10)
	if _, err := core.NewClient(srv1).Run(buildWorkload(frame)); err != nil {
		t.Fatal(err)
	}
	if srv1.Store.DiskBytes() == 0 {
		t.Fatal("setup: budget pressure should have demoted artifacts to disk")
	}
	if err := Save(srv1, dir); err != nil {
		t.Fatal(err)
	}
	// Hard stop: srv1 is abandoned with memory-tier contents unsaved to the
	// tier (only the checkpoint and prior demotions survive).

	// Session 2: boot scan verifies every checksum and rebuilds the index.
	srv2, rep := newTieredServer(t, dir, 2<<10)
	if rep.Quarantined != 0 {
		t.Fatalf("clean restart quarantined %d files", rep.Quarantined)
	}
	if rep.BytesVerified == 0 {
		t.Fatal("boot scan verified no bytes")
	}
	restored, err := Load(srv2, dir)
	if err != nil || !restored {
		t.Fatalf("Load: restored=%v err=%v", restored, err)
	}
	if srv2.Store.DiskBytes() == 0 {
		t.Fatal("disk tier empty after recovery")
	}
	if srv2.Materialized() == 0 {
		t.Fatal("no vertex is materialized after recovery")
	}
	res, err := core.NewClient(srv2).Run(buildWorkload(frame))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Error("recovered server should serve artifacts for reuse")
	}
	if res.Executed != 0 {
		t.Errorf("recovered identical workload recomputed %d ops", res.Executed)
	}
}

// TestCrashRecoveryQuarantinesAndRecomputes corrupts a stored column file
// between sessions: the restart must detect it (checksum), quarantine the
// file and its dependent artifact, and the re-run must recompute the lost
// work instead of serving torn data or failing.
func TestCrashRecoveryQuarantinesAndRecomputes(t *testing.T) {
	dir := t.TempDir()
	frame := testFrame(200)

	srv1, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv1).Run(buildWorkload(frame)); err != nil {
		t.Fatal(err)
	}
	if err := Save(srv1, dir); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in every stored column and blob file, so every artifact —
	// including the terminal's, which would otherwise satisfy the whole
	// re-run by itself — is lost.
	cols, err := filepath.Glob(filepath.Join(dir, "cols", "*.col"))
	if err != nil || len(cols) == 0 {
		t.Fatalf("no column files on disk (err=%v)", err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.bl"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blob files on disk (err=%v)", err)
	}
	for _, path := range append(cols, blobs...) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, rep := newTieredServer(t, dir, 0)
	if rep.Quarantined == 0 {
		t.Fatal("corrupted column not quarantined at boot")
	}
	if _, err := Load(srv2, dir); err != nil {
		t.Fatal(err)
	}
	// Every artifact was quarantined, so none is materialized.
	if n := srv2.Materialized(); n != 0 {
		t.Fatalf("%d vertices materialized after every artifact was quarantined", n)
	}
	res, err := core.NewClient(srv2).Run(buildWorkload(frame))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 {
		t.Error("quarantined artifact should force recomputation")
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) == 0 {
		t.Fatalf("quarantine dir empty (err=%v)", err)
	}
}

// TestLoadRejectsTornSnapshot truncates and byte-flips enveloped snapshots,
// in the payload and in the magic: each must surface ErrTorn rather than
// restoring partial state.
func TestLoadRejectsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv).Run(buildWorkload(testFrame(100))); err != nil {
		t.Fatal(err)
	}
	if err := Save(srv, dir); err != nil {
		t.Fatal(err)
	}
	egPath := filepath.Join(dir, "eg.gob")
	orig, err := os.ReadFile(egPath)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation (a torn write that lost its tail).
	if err := os.WriteFile(egPath, orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := func() *core.Server {
		return core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	}
	if _, err := Load(fresh(), dir); err == nil || !isTorn(err) {
		t.Fatalf("truncated snapshot: got %v, want ErrTorn", err)
	}

	// Single-byte corruption inside the payload.
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(egPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(fresh(), dir); err == nil || !isTorn(err) {
		t.Fatalf("corrupted snapshot: got %v, want ErrTorn", err)
	}

	// A flipped magic byte: torn, not a snapshot of some other format.
	bad = append([]byte(nil), orig...)
	bad[0] ^= 0x01
	if err := os.WriteFile(egPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(fresh(), dir); err == nil || !isTorn(err) {
		t.Fatalf("snapshot with a flipped magic: got %v, want ErrTorn", err)
	}

	// Restoring the original bytes works again.
	if err := os.WriteFile(egPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if restored, err := Load(fresh(), dir); err != nil || !restored {
		t.Fatalf("pristine snapshot: restored=%v err=%v", restored, err)
	}
}

// TestKillAfterCheckpointRestoresEveryArtifact: with no memory budget every
// artifact of the run is memory-only until the checkpoint, which must make
// each one durable. The server is then dropped without a shutdown; a fresh
// server on the same directory holds every artifact again and re-runs the
// workloads without executing anything.
func TestKillAfterCheckpointRestoresEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	src := kaggle.Generate(kaggle.DefaultConfig())
	// W2 and W3: W1 reruns its external visualization on any server,
	// restarted or not, because external artifacts are never materialized.
	wls := kaggle.AllWorkloads()[1:3]

	srv1, _ := newTieredServer(t, dir, 0)
	for _, wl := range wls {
		if _, err := core.NewClient(srv1).Run(wl.Build(src)); err != nil {
			t.Fatalf("W%d: %v", wl.ID, err)
		}
	}
	if srv1.Store.DiskBytes() != 0 {
		t.Fatal("setup: an unbudgeted run should leave every artifact memory-only")
	}
	if err := Save(srv1, dir); err != nil {
		t.Fatal(err)
	}
	held := srv1.Store.StoredIDs()
	sort.Strings(held)
	if len(held) == 0 {
		t.Fatal("setup: the run materialized nothing")
	}
	// Hard stop: srv1 is abandoned without a shutdown save.

	srv2, rep := newTieredServer(t, dir, 0)
	if rep.Quarantined != 0 {
		t.Fatalf("clean restart quarantined %d files", rep.Quarantined)
	}
	if restored, err := Load(srv2, dir); err != nil || !restored {
		t.Fatalf("Load: restored=%v err=%v", restored, err)
	}
	got := srv2.Store.StoredIDs()
	sort.Strings(got)
	if !reflect.DeepEqual(got, held) {
		t.Fatalf("restored %d artifacts, the checkpoint held %d", len(got), len(held))
	}
	for _, wl := range wls {
		res, err := core.NewClient(srv2).Run(wl.Build(src))
		if err != nil {
			t.Fatalf("W%d rerun: %v", wl.ID, err)
		}
		if res.Executed != 0 {
			t.Errorf("W%d rerun executed %d ops", wl.ID, res.Executed)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "store.gob")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store.gob after a checkpoint: %v", err)
	}
}

// TestCheckpointIsIncremental: a second checkpoint with no update in
// between rewrites no tier file, and neither leaves a store.gob.
func TestCheckpointIsIncremental(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv).Run(buildWorkload(testFrame(200))); err != nil {
		t.Fatal(err)
	}
	type stamp struct {
		size  int64
		mtime time.Time
	}
	files := func() map[string]stamp {
		t.Helper()
		out := map[string]stamp{}
		for _, sub := range []string{"cols", "frames", "blobs"} {
			entries, err := os.ReadDir(filepath.Join(dir, sub))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				out[sub+"/"+e.Name()] = stamp{info.Size(), info.ModTime()}
			}
		}
		return out
	}
	if err := Save(srv, dir); err != nil {
		t.Fatal(err)
	}
	first := files()
	if len(first) == 0 {
		t.Fatal("the first checkpoint wrote no tier file")
	}
	if err := Save(srv, dir); err != nil {
		t.Fatal(err)
	}
	if second := files(); !reflect.DeepEqual(second, first) {
		t.Errorf("the second checkpoint rewrote tier files:\nbefore %v\nafter  %v", first, second)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.gob")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store.gob after a checkpoint: %v", err)
	}
}
