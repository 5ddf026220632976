package tier

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
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

	frameMagic = "CTM2"
	blobMagic  = "CTB2"
)

// Version 1 of the tier's files, written before the version-2 records. Open
// refuses a directory holding one: commit v1LastConverter is the last
// version of this repository that converts such a directory to version 2.
const (
	colMagicV1      = "CTC1"
	frameMagicV1    = "CTM1"
	blobMagicV1     = "CTB1"
	v1LastConverter = "15844bf"
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
// inconsistent files, deletes orphaned columns, and rebuilds the index. A
// version-1 file that verifies fails Open, naming the file and the last
// commit that converts it; Open creates, moves or rewrites nothing before
// it. The directories a scan finds missing are created once every scan has
// passed.
func Open(dir string) (*Disk, *Report, error) {
	d := &Disk{dir: dir, idx: NewIndex()}
	rep := &Report{}
	sizes := make(map[string]int64) // every verified column file
	err := d.scan(colsDir, colExt, rep, func(name string, b []byte) bool {
		r, err := ValidateColumn(b, nil)
		if err != nil || fname(r.ID)+colExt != name {
			return false
		}
		sizes[r.ID] = r.Size
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
	for _, sub := range []string{colsDir, framesDir, blobsDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("tier: %w", err)
		}
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
	_ = os.MkdirAll(filepath.Join(d.dir, quarantineDir), 0o755)
	_ = os.Rename(path, filepath.Join(d.dir, quarantineDir, filepath.Base(path)))
}

// scan reads every file of one kind, counting the bytes of those load
// accepts and quarantining those it refuses or that cannot be read; a
// missing directory holds none. A sound version-1 file is an error: it is
// not corrupt, and this version cannot read it.
func (d *Disk) scan(sub, ext string, rep *Report, load func(name string, b []byte) bool) error {
	entries, err := os.ReadDir(filepath.Join(d.dir, sub))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ext {
			continue
		}
		path := filepath.Join(d.dir, sub, e.Name())
		b, err := os.ReadFile(path)
		if err == nil {
			if magic, _, v1 := rec.Open(b, colMagicV1, frameMagicV1, blobMagicV1); v1 == nil {
				return fmt.Errorf("tier: %s is a version-1 file (%s), which this version does not read; "+
					"commit %s is the last that converts it to version 2", path, magic, v1LastConverter)
			}
		}
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
// Open refuses version 1 ("CTM1").
func encodeManifest(vid string, man Manifest) ([]byte, error) {
	w := rec.Frame(frameMagic, 17+len(man.ColIDs)*(17+8))
	w.ID(vid)
	WriteManifest(&w, man.ColIDs, man.Names)
	return w.Seal()
}

func decodeManifest(b []byte) (vid string, man Manifest, err error) {
	_, body, err := rec.Open(b, frameMagic)
	if err != nil {
		return "", man, err
	}
	r := rec.NewReader(body)
	vid = r.ID()
	man.ColIDs, man.Names = ReadManifest(&r)
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
// Open refuses version 1 ("CTB1"), the same frame around a gob payload.
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
	_, body, err := rec.Open(b, blobMagic)
	if err != nil {
		return "", nil, err
	}
	r := rec.NewReader(body)
	vid = r.Str16()
	content = readArtifact(&r)
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return vid, content, nil
}

// PutFrame spills a dataset artifact given by its manifest: size(i) is the
// size of column man.ColIDs[i], and record(i) its record, asked for only
// when the column file is not already present (content-addressed dedup). A
// column file carries the name the manifest gives the column where it first
// names it. The manifest is written last, so a crash mid-spill leaves only
// orphan columns that the next Open garbage-collects. Re-putting an existing
// vertex is a no-op.
func (d *Disk) PutFrame(vid string, man Manifest, size func(i int) int64, record func(i int) (Record, error)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx.Has(vid) {
		return nil
	}
	for _, i := range d.idx.AddFrame(vid, man, size) {
		r, err := record(i)
		if err == nil {
			r, err = r.Named(man.Names[i])
		}
		if err == nil {
			err = rec.WriteFile(d.colPath(man.ColIDs[i]), r.Bytes())
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
			r, err := d.readRecordLocked(colID)
			var c *data.Column
			if err == nil {
				c, err = DecodeColumn(r.Bytes())
			}
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

// ColumnRecord reads one column file by lineage ID, so a frame can be
// assembled from columns that earlier frames spilled; ok is false when the
// tier holds no such column. The file is checked as FrameRecords checks it,
// and one that fails is left for Get, which quarantines it together with
// the frame it tears.
func (d *Disk) ColumnRecord(colID string) (r Record, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.idx.HasColumn(colID) {
		return Record{}, false, nil
	}
	if r, err = d.readRecordLocked(colID); err != nil {
		return Record{}, false, fmt.Errorf("tier: %w", err)
	}
	return r, true, nil
}

// FrameRecords returns the manifest of a dataset on disk and the records of
// its distinct columns (Distinct): what a download of it writes, the bytes
// the files hold. Each file is checked against its checksum and the ID it is
// filed under; its content was checked whole when it was written or when
// Open found it. ok is false when vid is no dataset on disk. A failed read
// drops the vertex and quarantines a file that fails the check, as Get does.
func (d *Disk) FrameRecords(vid string) (man Manifest, recs []Record, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if man, ok = d.idx.Frame(vid); !ok {
		return Manifest{}, nil, false, nil
	}
	recs, err = Distinct(man, func(colID string) (Record, error) {
		r, err := d.readRecordLocked(colID)
		if errors.Is(err, ErrCorrupt) {
			d.quarantine(d.colPath(colID))
		}
		return r, err
	})
	if err != nil {
		d.dropLocked(vid)
		return man, nil, true, fmt.Errorf("tier: %s: %w", vid, err)
	}
	return man, recs, true, nil
}

// readRecordLocked reads one column file as a Record, checking its checksum
// and that it is the record of the column it is filed under.
func (d *Disk) readRecordLocked(colID string) (Record, error) {
	b, err := os.ReadFile(d.colPath(colID))
	if err != nil {
		return Record{}, fmt.Errorf("reading column %s: %w", colID, err)
	}
	var r Record
	_, body, err := rec.Open(b, colMagic)
	if err == nil {
		rd := rec.NewReader(body)
		info, _ := readHeader(&rd, nil)
		info.Size = d.idx.ColumnSize(colID)
		r, err = Record{info, b}, rd.Err()
	}
	if err == nil && r.ID != colID {
		err = fmt.Errorf("%w: column identity mismatch", ErrCorrupt)
	}
	if err != nil {
		return Record{}, fmt.Errorf("column %s: %w", colID, err)
	}
	return r, nil
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
