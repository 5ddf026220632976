// Package persist saves and restores the collaborative-optimizer server's
// state — the Experiment Graph and the materialized artifact store — so a
// collabd daemon survives restarts without losing the accumulated history
// of the collaborative environment.
//
// Layout under the data directory:
//
//	eg.gob     Experiment Graph snapshot
//	store.gob  materialized artifact contents (column dedup is rebuilt on
//	           load from the preserved lineage IDs); artifacts already
//	           durable in the store's disk tier are skipped — the tier
//	           directory is their authoritative copy
//
// Writes are atomic and verified: content goes to an fsynced temp file that
// is renamed over the target, and each snapshot carries a length + CRC-32C
// envelope so Load rejects torn or truncated files with a clear error
// instead of restoring garbage.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/eg"
	"repro/internal/graph"

	// Register artifact and model types for gob.
	_ "repro/internal/remote"
)

const (
	egFile    = "eg.gob"
	storeFile = "store.gob"

	// snapMagic opens every snapshot envelope; files without it are read as
	// legacy raw gob (pre-envelope snapshots).
	snapMagic = "CSN1"
)

// ErrTorn marks a snapshot rejected as torn or truncated (length or
// checksum mismatch). Callers distinguish it from fs.ErrNotExist: a missing
// file is a first boot, a torn file is data loss that deserves a loud log.
var ErrTorn = errors.New("persist: torn or truncated snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// storeSnapshot is the serialized artifact store: artifact content by
// vertex ID. Column deduplication is an in-memory property that Put
// re-establishes on load (lineage IDs are preserved inside the frames).
type storeSnapshot struct {
	Artifacts map[string]artifactRecord
}

// artifactRecord wraps the Artifact interface for gob.
type artifactRecord struct {
	Content graph.Artifact
}

// Save writes the server's EG and store under dir, creating it if needed.
func Save(srv *core.Server, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := writeGobFile(filepath.Join(dir, egFile), srv.EG.Snapshot()); err != nil {
		return err
	}
	disk := srv.Store.Disk()
	snap := storeSnapshot{Artifacts: make(map[string]artifactRecord)}
	for _, id := range srv.Store.StoredIDs() {
		// Artifacts with a disk-tier copy are already durable in the tier
		// directory (checksummed, column-deduplicated); snapshotting them
		// again would store the bytes twice without dedup.
		if disk != nil && disk.Has(id) {
			continue
		}
		// Peek, not Get: snapshotting must not disturb tier placement or
		// the LRU order.
		if content, _ := srv.Store.Peek(id); content != nil {
			snap.Artifacts[id] = artifactRecord{Content: content}
		}
	}
	return writeGobFile(filepath.Join(dir, storeFile), &snap)
}

// Load restores a previously saved state into the server. A missing data
// directory (first boot) is not an error; Load then leaves the server
// empty and returns false.
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
	for id, rec := range st.Artifacts {
		if rec.Content == nil {
			continue
		}
		if err := srv.Store.Put(id, rec.Content); err != nil {
			return false, fmt.Errorf("persist: restoring %s: %w", id, err)
		}
		srv.EG.SetMaterialized(id, true)
	}
	// Artifacts recovered by the disk tier's own boot scan (checksummed
	// files under the store directory) are loadable without recomputation:
	// mark their EG vertices materialized.
	for _, id := range srv.Store.StoredIDs() {
		if srv.EG.Vertex(id) != nil {
			srv.EG.SetMaterialized(id, true)
		}
	}
	// Vertices whose content did not survive must not be marked
	// materialized, or the planner would propose loading them.
	for _, id := range srv.EG.MaterializedIDs() {
		if !srv.Store.Has(id) {
			srv.EG.SetMaterialized(id, false)
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
	buf := make([]byte, 0, len(snapMagic)+8+payload.Len()+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readGobFile reads an enveloped snapshot, rejecting torn or truncated
// files with ErrTorn. Files without the envelope magic are decoded as
// legacy raw gob for compatibility with pre-envelope snapshots.
func readGobFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != string(snapMagic) {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
			return fmt.Errorf("persist: decode legacy %s: %w", name, err)
		}
		return nil
	}
	head := len(snapMagic) + 8
	if len(b) < head+4 {
		return fmt.Errorf("persist: %s: %d bytes: %w", name, len(b), ErrTorn)
	}
	payloadLen := binary.LittleEndian.Uint64(b[len(snapMagic):head])
	if uint64(len(b)) != uint64(head)+payloadLen+4 {
		return fmt.Errorf("persist: %s: length %d does not match declared payload %d: %w",
			name, len(b), payloadLen, ErrTorn)
	}
	body, trailer := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return fmt.Errorf("persist: %s: checksum mismatch: %w", name, ErrTorn)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[head:])).Decode(v); err != nil {
		return fmt.Errorf("persist: decode %s: %w", name, err)
	}
	return nil
}
