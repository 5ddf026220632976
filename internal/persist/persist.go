// Package persist saves and restores the collaborative-optimizer server's
// state — the Experiment Graph and the materialized artifact store — so a
// collabd daemon survives restarts without losing the accumulated history
// of the collaborative environment.
//
// The state directory is the store's disk tier (internal/tier), which holds
// the one durable copy of every artifact, with the graph beside it:
//
//	eg.gob     Experiment Graph snapshot
//	store.gob  artifact contents as versions before the tier held them all
//	           saved them: Load restores it once, and the next clean Save,
//	           having written its artifacts as tier files, removes it
//
// Writes are atomic and verified: content goes to an fsynced temp file that
// is renamed over the target, and each snapshot carries a length + CRC-32C
// envelope under the magic "CSN1" so Load rejects torn or truncated files
// with a clear error instead of restoring garbage. A file without the magic
// is refused as torn too.
package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/rec"
)

// A store.gob holds artifacts as gob interface values.
func init() { graph.RegisterGobTypes() }

const (
	egFile    = "eg.gob"
	storeFile = "store.gob"

	// snapMagic opens every snapshot envelope; a file without it is torn.
	snapMagic = "CSN1"
)

// ErrTorn marks a snapshot rejected as torn or truncated (magic, length or
// checksum mismatch). Callers distinguish it from fs.ErrNotExist: a missing
// file is a first boot, a torn file is data loss that deserves a loud log.
var ErrTorn = errors.New("persist: torn or truncated snapshot")

// storeSnapshot decodes a store.gob: artifact content by vertex ID. Column
// deduplication is re-established by Put on load (lineage IDs are preserved
// inside the frames).
type storeSnapshot struct {
	Artifacts map[string]artifactRecord
}

// artifactRecord wraps the Artifact interface for gob.
type artifactRecord struct {
	Content graph.Artifact
}

// Save checkpoints the server's state under dir, creating it if needed: the
// store syncs its memory tier into the disk tier, then the EG snapshot is
// written — data before the index that names it. A failed sync does not stop
// the EG snapshot: Save writes it and returns the errors joined, so a bad
// checkpoint loses at most the artifacts it could not write, not the graph.
// A store without a disk tier has nothing durable, and Save says so.
func Save(srv *core.Server, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	syncErr := srv.Store.Sync()
	if err := writeGobFile(filepath.Join(dir, egFile), srv.EG.Snapshot()); err != nil {
		return errors.Join(syncErr, err)
	}
	if syncErr != nil {
		return fmt.Errorf("persist: %w", syncErr)
	}
	if err := os.Remove(filepath.Join(dir, storeFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Load restores a previously saved state into the server. A missing data
// directory (first boot) is not an error; Load then leaves the server
// empty and returns false. What is materialized after a restore is what the
// store holds: the disk tier's survivors (its boot scan verified their
// checksums) and the artifacts of a store.gob, restored in ID order so that
// a memory budget demotes the same ones on every load; the first update
// evicts those the restored graph does not keep.
func Load(srv *core.Server, dir string) (restored bool, err error) {
	var egSnap eg.Snapshot
	if err := readGobFile(filepath.Join(dir, egFile), &egSnap); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	var st storeSnapshot
	if err := readGobFile(filepath.Join(dir, storeFile), &st); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return false, err
		}
	}
	srv.EG = eg.FromSnapshot(&egSnap)
	ids := make([]string, 0, len(st.Artifacts))
	for id := range st.Artifacts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		content := st.Artifacts[id].Content
		if content == nil {
			continue
		}
		if err := srv.Store.Put(id, content); err != nil {
			return false, fmt.Errorf("persist: restoring %s: %w", id, err)
		}
	}
	return true, nil
}

// writeGobFile writes v as an enveloped gob snapshot: magic, little-endian
// payload length, gob payload, CRC-32C over everything before the trailer.
// The temp file is fsynced before the rename so the envelope's durability
// matches its integrity claim.
func writeGobFile(path string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("persist: encode %s: %w", filepath.Base(path), err)
	}
	w := rec.Frame(snapMagic, 8+payload.Len())
	w.U64(uint64(payload.Len()))
	w.Raw(payload.Bytes())
	buf, err := w.Seal()
	if err == nil {
		err = rec.WriteFile(path, buf)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// readGobFile reads an enveloped snapshot, rejecting torn or truncated
// files, and any without the envelope's magic, with ErrTorn.
func readGobFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	_, body, err := rec.Open(b, snapMagic)
	if err != nil {
		return fmt.Errorf("persist: %s: %v: %w", name, err, ErrTorn)
	}
	r := rec.NewReader(body)
	if n := r.U64(); r.Err() != nil || n != uint64(r.Left()) {
		return fmt.Errorf("persist: %s: %d bytes do not hold the declared payload of %d: %w", name, len(b), n, ErrTorn)
	}
	if err := gob.NewDecoder(bytes.NewReader(r.Bytes(r.Left()))).Decode(v); err != nil {
		return fmt.Errorf("persist: decode %s: %w", name, err)
	}
	return nil
}
