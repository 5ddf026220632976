// Package persist saves and restores the collaborative-optimizer server's
// state — the Experiment Graph and the materialized artifact store — so a
// collabd daemon survives restarts without losing the accumulated history
// of the collaborative environment.
//
// The state directory is the store's disk tier (internal/tier), which holds
// the one durable copy of every artifact, with the graph beside it:
//
//	eg.gob     Experiment Graph snapshot
//
// A store.gob, the artifact snapshot of versions before the tier held every
// artifact, is refused: CheckDir and Load fail naming the last commit that
// converts it.
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

	"repro/internal/core"
	"repro/internal/eg"
	"repro/internal/rec"
)

const (
	egFile = "eg.gob"

	// snapMagic opens every snapshot envelope; a file without it is torn.
	snapMagic = "CSN1"

	// storeFile is the artifact snapshot of older versions, which Load
	// refuses; commit storeLastConverter is the last version of this
	// repository that converts it to tier files (a start, then a drain).
	storeFile          = "store.gob"
	storeLastConverter = "15844bf"
)

// ErrTorn marks a snapshot rejected as torn or truncated (magic, length or
// checksum mismatch). Callers distinguish it from fs.ErrNotExist: a missing
// file is a first boot, a torn file is data loss that deserves a loud log.
var ErrTorn = errors.New("persist: torn or truncated snapshot")

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
	return nil
}

// Load restores a previously saved state into the server. A missing data
// directory (first boot) is not an error; Load then leaves the server
// empty and returns false. What is materialized after a restore is what the
// store holds, the disk tier's survivors (its boot scan verified their
// checksums); the first update evicts those the restored graph does not
// keep. A directory CheckDir refuses fails Load.
func Load(srv *core.Server, dir string) (restored bool, err error) {
	if err := CheckDir(dir); err != nil {
		return false, err
	}
	var egSnap eg.Snapshot
	if err := readGobFile(filepath.Join(dir, egFile), &egSnap); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	srv.EG = eg.FromSnapshot(&egSnap)
	return true, nil
}

// CheckDir refuses a state directory of an older version: one holding a
// store.gob, with or without an eg.gob beside it. It reads nothing else and
// changes nothing, so a caller can refuse the directory before anything
// opens it.
func CheckDir(dir string) error {
	path := filepath.Join(dir, storeFile)
	if _, err := os.Lstat(path); err == nil {
		return fmt.Errorf("persist: %s is an artifact snapshot of an older version, which this version does not read; "+
			"commit %s is the last that converts it to tier files", path, storeLastConverter)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
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
