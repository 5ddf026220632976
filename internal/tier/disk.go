package tier

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/rec"
)

// Directory layout under the tier root:
//
//	cols/<h>.col        one file per column lineage ID (EncodeColumn)
//	frames/<h>.mf       dataset manifest: vertex ID → ordered (colID, name)
//	blobs/<h>.bl        whole-blob artifacts (models, aggregates), blob record
//	quarantine/         corrupt files moved here by Open, never loaded
//
// File names are hex(sha256(logical ID))[:40]; the logical ID inside the
// (checksummed) file is authoritative, so arbitrary vertex IDs are safe.
const (
	colsDir       = "cols"
	framesDir     = "frames"
	blobsDir      = "blobs"
	quarantineDir = "quarantine"

	colExt   = ".col"
	frameExt = ".mf"
	blobExt  = ".bl"

	frameMagic   = "CTM2"
	frameMagicV1 = "CTM1"
	blobMagic    = "CTB2"
	blobMagicV1  = "CTB1"
)

func fname(id string) string {
	h := sha256.Sum256([]byte(id))
	return hex.EncodeToString(h[:20])
}

// Report summarizes what Open found while rebuilding the tier index.
type Report struct {
	// Columns, Frames, Blobs count the files that verified cleanly.
	Columns, Frames, Blobs int
	// Quarantined counts corrupt or inconsistent files moved to
	// quarantine/ instead of being loaded.
	Quarantined int
	// OrphanColumns counts verified column files no manifest referenced;
	// they are deleted (garbage collection).
	OrphanColumns int
	// BytesVerified is the total size of files whose checksums were
	// verified.
	BytesVerified int64
}

// Disk is the durable tier: a content-addressed, checksummed column/blob
// store rooted at a directory, an Index of what its files hold. It is safe
// for concurrent use. All writes are atomic (temp file + rename) and fsynced,
// so a crash never leaves a half-written file under its final name.
type Disk struct {
	mu  sync.Mutex
	dir string
	idx *Index
}

// Open attaches to (or creates) a disk tier rooted at dir: it scans the
// store directories, verifies every file's checksum, quarantines corrupt or
// inconsistent files, deletes orphaned columns, and rebuilds the index.
func Open(dir string) (*Disk, *Report, error) {
	for _, sub := range []string{colsDir, framesDir, blobsDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("tier: %w", err)
		}
	}
	d := &Disk{dir: dir, idx: NewIndex()}
	rep := &Report{}
	sizes := make(map[string]int64) // every verified column file
	err := d.scan(colsDir, colExt, rep, func(name string, b []byte) bool {
		c, err := DecodeColumn(b)
		if err != nil || fname(c.ID)+colExt != name {
			return false
		}
		sizes[c.ID] = c.SizeBytes()
		rep.Columns++
		return true
	})
	if err == nil {
		err = d.scan(framesDir, frameExt, rep, func(name string, b []byte) bool {
			vid, man, err := decodeManifest(b)
			if err != nil || fname(vid)+frameExt != name {
				return false
			}
			// A manifest naming a missing or quarantined column is
			// unservable: quarantine it too, rather than serving a torn frame.
			for _, id := range man.ColIDs {
				if _, ok := sizes[id]; !ok {
					return false
				}
			}
			d.idx.AddFrame(vid, man, func(i int) int64 { return sizes[man.ColIDs[i]] })
			rep.Frames++
			return true
		})
	}
	if err == nil {
		err = d.scan(blobsDir, blobExt, rep, func(name string, b []byte) bool {
			vid, content, err := decodeBlob(b)
			if err != nil || fname(vid)+blobExt != name {
				return false
			}
			d.idx.AddBlob(vid, content.SizeBytes())
			rep.Blobs++
			return true
		})
	}
	if err != nil {
		return nil, nil, err
	}
	// Garbage-collect verified columns no surviving manifest names.
	for id := range sizes {
		if !d.idx.HasColumn(id) {
			_ = os.Remove(d.colPath(id))
			rep.OrphanColumns++
		}
	}
	return d, rep, nil
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) colPath(colID string) string {
	return filepath.Join(d.dir, colsDir, fname(colID)+colExt)
}

func (d *Disk) framePath(vid string) string {
	return filepath.Join(d.dir, framesDir, fname(vid)+frameExt)
}

func (d *Disk) blobPath(vid string) string {
	return filepath.Join(d.dir, blobsDir, fname(vid)+blobExt)
}

// quarantine moves a bad file aside so it is never loaded again but remains
// available for forensics. Best-effort: if the move fails the file is left
// in place (and will fail verification again next boot).
func (d *Disk) quarantine(path string) {
	_ = os.Rename(path, filepath.Join(d.dir, quarantineDir, filepath.Base(path)))
}

// scan reads every file of one kind, counting the bytes of those load
// accepts and quarantining those it refuses or that cannot be read.
func (d *Disk) scan(sub, ext string, rep *Report, load func(name string, b []byte) bool) error {
	entries, err := os.ReadDir(filepath.Join(d.dir, sub))
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ext {
			continue
		}
		path := filepath.Join(d.dir, sub, e.Name())
		b, err := os.ReadFile(path)
		if err != nil || !load(e.Name(), b) {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		rep.BytesVerified += int64(len(b))
	}
	return nil
}

// Manifest file format, version 2: the wire's manifest of a dataset
// (WriteManifest) after the vertex ID, in the primitives of internal/rec.
//
//	magic "CTM2", id vid, count n, n × (id colID, id name), u32 CRC-32C
//
// Version 1 ("CTM1") is read, never written: magic, str16 vid, u32 count,
// count × (str16 colID, str16 name), u32 CRC-32C.
func encodeManifest(vid string, man Manifest) ([]byte, error) {
	w := rec.Frame(frameMagic, 17+len(man.ColIDs)*(17+8))
	w.ID(vid)
	WriteManifest(&w, man.ColIDs, man.Names)
	return w.Seal()
}

func decodeManifest(b []byte) (vid string, man Manifest, err error) {
	magic, body, err := rec.Open(b, frameMagic, frameMagicV1)
	if err != nil {
		return "", man, err
	}
	r := rec.NewReader(body)
	if magic == frameMagic {
		vid = r.ID()
		man.ColIDs, man.Names = ReadManifest(&r)
	} else {
		vid = r.Str16()
		if n := r.U32(); n > uint32(r.Left()/4) { // an entry takes two lengths at least
			r.Fail("%d manifest entries in %d bytes", n, r.Left())
		} else {
			man.ColIDs, man.Names = make([]string, n), make([]string, n)
			for i := range man.ColIDs {
				man.ColIDs[i], man.Names[i] = r.Str16(), r.Str16()
			}
		}
	}
	if err := r.Done(); err != nil {
		return "", Manifest{}, err
	}
	return vid, man, nil
}

// WriteManifest writes a frame's manifest — its column lineage IDs in order,
// with the names they carry in it — as count n, n × (id colID, id name). It
// is the body of a manifest file after its vertex ID and the manifest of a
// dataset on the wire.
func WriteManifest(w *rec.Writer, colIDs, names []string) {
	if len(names) != len(colIDs) {
		w.Fail("%d column ids, %d names", len(colIDs), len(names))
		return
	}
	w.Uvarint(uint64(len(colIDs)))
	for i := range colIDs {
		w.ID(colIDs[i])
		w.ID(names[i])
	}
}

// ReadManifest reads what WriteManifest writes.
func ReadManifest(r *rec.Reader) (colIDs, names []string) {
	n := r.Count(2)
	if n == 0 {
		return nil, nil
	}
	colIDs, names = make([]string, n), make([]string, n)
	for i := range colIDs {
		colIDs[i], names[i] = r.ID(), r.ID()
	}
	return colIDs, names
}

// Blob file format, version 2:
//
//	magic "CTB2", str16 vid, blob record (AppendBlob), u32 CRC-32C
//
// Version 1 ("CTB1") is read, never written (blobv1.go): the same frame
// around a gob payload.
func encodeBlob(vid string, a graph.Artifact) ([]byte, error) {
	w := rec.Frame(blobMagic, 2+len(vid)+256)
	w.Str16(vid)
	writeArtifact(&w, a)
	b, err := w.Seal()
	if err != nil {
		return nil, fmt.Errorf("tier: encoding blob %s: %w", vid, err)
	}
	return b, nil
}

func decodeBlob(b []byte) (vid string, content graph.Artifact, err error) {
	magic, body, err := rec.Open(b, blobMagic, blobMagicV1)
	if err != nil {
		return "", nil, err
	}
	r := rec.NewReader(body)
	vid = r.Str16()
	if magic == blobMagicV1 {
		if p := r.Bytes(r.Left()); r.Err() == nil {
			content, err = decodeBlobV1(p)
		}
	} else {
		content = readArtifact(&r)
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return "", nil, err
	}
	return vid, content, nil
}

// PutFrame spills a dataset artifact: it writes column files that are not
// already present (content-addressed dedup) and then the manifest. The
// manifest is written last, so a crash mid-spill leaves only orphan columns
// that the next Open garbage-collects. Re-putting an existing vertex is a
// no-op.
func (d *Disk) PutFrame(vid string, cols []*data.Column) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx.Has(vid) {
		return nil
	}
	man := ManifestOf(cols)
	for _, i := range d.idx.AddFrame(vid, man, func(i int) int64 { return cols[i].SizeBytes() }) {
		b, err := EncodeColumn(cols[i])
		if err == nil {
			err = rec.WriteFile(d.colPath(cols[i].ID), b)
		}
		if err != nil {
			d.evictLocked(vid)
			return err
		}
	}
	b, err := encodeManifest(vid, man)
	if err == nil {
		err = rec.WriteFile(d.framePath(vid), b)
	}
	if err != nil {
		d.evictLocked(vid)
		return err
	}
	return nil
}

// PutBlob spills a non-dataset artifact as one checksummed file.
// Re-putting an existing vertex is a no-op.
func (d *Disk) PutBlob(vid string, a graph.Artifact) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx.Has(vid) {
		return nil
	}
	b, err := encodeBlob(vid, a)
	if err == nil {
		err = rec.WriteFile(d.blobPath(vid), b)
	}
	if err != nil {
		return err
	}
	d.idx.AddBlob(vid, a.SizeBytes())
	return nil
}

// Get reads, verifies, and reassembles the artifact stored for a vertex.
// It returns (nil, nil) when the vertex is absent. A failed read drops the
// vertex, leaving the files of its columns to the next Open, and returns an
// error; a file that fails verification is quarantined, and the error wraps
// ErrCorrupt.
func (d *Disk) Get(vid string) (graph.Artifact, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if man, ok := d.idx.Frame(vid); ok {
		a, err := Assemble(man, func(colID string) (*data.Column, error) {
			c, err := d.readColumnLocked(colID)
			if errors.Is(err, ErrCorrupt) {
				d.quarantine(d.colPath(colID))
			}
			return c, err
		})
		if err != nil {
			d.dropLocked(vid)
			return nil, fmt.Errorf("tier: %s: %w", vid, err)
		}
		return a, nil
	}
	if !d.idx.Has(vid) {
		return nil, nil
	}
	path := d.blobPath(vid)
	b, err := os.ReadFile(path)
	if err != nil {
		d.dropLocked(vid)
		return nil, fmt.Errorf("tier: reading blob %s: %w", vid, err)
	}
	gotVid, content, err := decodeBlob(b)
	if err != nil || gotVid != vid {
		d.quarantine(path)
		d.dropLocked(vid)
		if err == nil {
			err = fmt.Errorf("%w: blob identity mismatch", ErrCorrupt)
		}
		return nil, fmt.Errorf("tier: blob %s: %w", vid, err)
	}
	return content, nil
}

// HasColumn reports whether a verified file for the column lineage ID is on
// disk, i.e. some spilled frame references it.
func (d *Disk) HasColumn(colID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.HasColumn(colID)
}

// Column reads and verifies one column file by lineage ID, so a frame can be
// assembled from columns that earlier frames spilled. It returns (nil, nil)
// when the tier holds no such column, and an error wrapping ErrCorrupt when
// the file fails verification; the file is left for Get, which quarantines it
// together with the frame it tears.
func (d *Disk) Column(colID string) (*data.Column, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.idx.HasColumn(colID) {
		return nil, nil
	}
	c, err := d.readColumnLocked(colID)
	if err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	return c, nil
}

// readColumnLocked reads one column file and checks that it decodes to the
// column it is filed under.
func (d *Disk) readColumnLocked(colID string) (*data.Column, error) {
	b, err := os.ReadFile(d.colPath(colID))
	if err != nil {
		return nil, fmt.Errorf("reading column %s: %w", colID, err)
	}
	c, err := DecodeColumn(b)
	if err == nil && c.ID != colID {
		err = fmt.Errorf("%w: column identity mismatch", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("column %s: %w", colID, err)
	}
	return c, nil
}

// dropLocked forgets a vertex and deletes its manifest or blob file. It
// returns the columns no manifest names any more; their files are the
// caller's to delete or to leave for the next Open to collect.
func (d *Disk) dropLocked(vid string) (freed []string) {
	if _, ok := d.idx.Frame(vid); ok {
		_ = os.Remove(d.framePath(vid))
	} else {
		_ = os.Remove(d.blobPath(vid))
	}
	return d.idx.Drop(vid)
}

// Evict removes a vertex's content from disk: its manifest or blob file, and
// the files of the columns no other manifest names.
func (d *Disk) Evict(vid string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx.Has(vid) {
		d.evictLocked(vid)
	}
}

func (d *Disk) evictLocked(vid string) {
	for _, id := range d.dropLocked(vid) {
		_ = os.Remove(d.colPath(id))
	}
}

// Has reports whether the vertex's content is on disk.
func (d *Disk) Has(vid string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Has(vid)
}

// LogicalSize returns the stored artifact's logical size, or 0 if absent.
func (d *Disk) LogicalSize(vid string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Logical(vid)
}

// PhysicalBytes returns the deduplicated payload bytes resident on disk.
func (d *Disk) PhysicalBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Physical()
}

// Len returns the number of artifacts on disk.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Len()
}

// StoredIDs returns the vertex IDs with content on disk, sorted for
// deterministic iteration.
func (d *Disk) StoredIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := d.idx.IDs()
	sort.Strings(ids)
	return ids
}
