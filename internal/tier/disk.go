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

// manifest is the in-memory index entry for a spilled dataset artifact.
type manifest struct {
	colIDs []string
	names  []string
}

type colState struct {
	size int64
	refs int
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
// store rooted at a directory. It is safe for concurrent use. All writes
// are atomic (temp file + rename) and fsynced, so a crash never leaves a
// half-written file under its final name.
type Disk struct {
	mu  sync.Mutex
	dir string

	frames  map[string]manifest // vertex ID → spilled dataset manifest
	blobs   map[string]int64    // vertex ID → logical blob size
	cols    map[string]colState // column lineage ID → size and ref count
	logical map[string]int64    // vertex ID → logical artifact size

	physical int64 // deduplicated bytes on disk (column + blob payloads)
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
	d := &Disk{
		dir:     dir,
		frames:  make(map[string]manifest),
		blobs:   make(map[string]int64),
		cols:    make(map[string]colState),
		logical: make(map[string]int64),
	}
	rep := &Report{}
	if err := d.scanColumns(rep); err != nil {
		return nil, nil, err
	}
	if err := d.scanFrames(rep); err != nil {
		return nil, nil, err
	}
	if err := d.scanBlobs(rep); err != nil {
		return nil, nil, err
	}
	// Garbage-collect verified columns no surviving manifest references.
	for id, st := range d.cols {
		if st.refs == 0 {
			_ = os.Remove(d.colPath(id))
			delete(d.cols, id)
			rep.OrphanColumns++
		} else {
			d.physical += st.size
		}
	}
	for _, sz := range d.blobs {
		d.physical += sz
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

func (d *Disk) scanColumns(rep *Report) error {
	entries, err := os.ReadDir(filepath.Join(d.dir, colsDir))
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != colExt {
			continue
		}
		path := filepath.Join(d.dir, colsDir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		c, err := DecodeColumn(b)
		if err != nil || fname(c.ID)+colExt != e.Name() {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		d.cols[c.ID] = colState{size: c.SizeBytes()}
		rep.Columns++
		rep.BytesVerified += int64(len(b))
	}
	return nil
}

func (d *Disk) scanFrames(rep *Report) error {
	entries, err := os.ReadDir(filepath.Join(d.dir, framesDir))
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != frameExt {
			continue
		}
		path := filepath.Join(d.dir, framesDir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		vid, man, err := decodeManifest(b)
		if err != nil || fname(vid)+frameExt != e.Name() {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		// A manifest referencing a missing or quarantined column is
		// unservable: quarantine it too, rather than serving a torn frame.
		complete := true
		for _, cid := range man.colIDs {
			if _, ok := d.cols[cid]; !ok {
				complete = false
				break
			}
		}
		if !complete {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		var logical int64
		for _, cid := range man.colIDs {
			st := d.cols[cid]
			st.refs++
			d.cols[cid] = st
			logical += st.size
		}
		d.frames[vid] = man
		d.logical[vid] = logical
		rep.Frames++
		rep.BytesVerified += int64(len(b))
	}
	return nil
}

func (d *Disk) scanBlobs(rep *Report) error {
	entries, err := os.ReadDir(filepath.Join(d.dir, blobsDir))
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != blobExt {
			continue
		}
		path := filepath.Join(d.dir, blobsDir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		vid, content, err := decodeBlob(b)
		if err != nil || fname(vid)+blobExt != e.Name() {
			d.quarantine(path)
			rep.Quarantined++
			continue
		}
		sz := content.SizeBytes()
		d.blobs[vid] = sz
		d.logical[vid] = sz
		rep.Blobs++
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
func encodeManifest(vid string, man manifest) ([]byte, error) {
	w := rec.Frame(frameMagic, 17+len(man.colIDs)*(17+8))
	w.ID(vid)
	WriteManifest(&w, man.colIDs, man.names)
	return w.Seal()
}

func decodeManifest(b []byte) (vid string, man manifest, err error) {
	magic, body, err := rec.Open(b, frameMagic, frameMagicV1)
	if err != nil {
		return "", man, err
	}
	r := rec.NewReader(body)
	if magic == frameMagic {
		vid = r.ID()
		man.colIDs, man.names = ReadManifest(&r)
	} else {
		vid = r.Str16()
		if n := r.U32(); n > uint32(r.Left()/4) { // an entry takes two lengths at least
			r.Fail("%d manifest entries in %d bytes", n, r.Left())
		} else {
			man.colIDs, man.names = make([]string, n), make([]string, n)
			for i := range man.colIDs {
				man.colIDs[i], man.names[i] = r.Str16(), r.Str16()
			}
		}
	}
	if err := r.Done(); err != nil {
		return "", manifest{}, err
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
	if _, ok := d.frames[vid]; ok {
		return nil
	}
	man := manifest{
		colIDs: make([]string, len(cols)),
		names:  make([]string, len(cols)),
	}
	var logical int64
	for i, c := range cols {
		man.colIDs[i] = c.ID
		man.names[i] = c.Name
		logical += c.SizeBytes()
		if _, ok := d.cols[c.ID]; ok {
			continue
		}
		b, err := EncodeColumn(c)
		if err != nil {
			return err
		}
		if err := rec.WriteFile(d.colPath(c.ID), b); err != nil {
			return err
		}
		d.cols[c.ID] = colState{size: c.SizeBytes()}
		d.physical += c.SizeBytes()
	}
	mb, err := encodeManifest(vid, man)
	if err != nil {
		return err
	}
	if err := rec.WriteFile(d.framePath(vid), mb); err != nil {
		return err
	}
	for _, cid := range man.colIDs {
		st := d.cols[cid]
		st.refs++
		d.cols[cid] = st
	}
	d.frames[vid] = man
	d.logical[vid] = logical
	return nil
}

// PutBlob spills a non-dataset artifact as one checksummed file.
// Re-putting an existing vertex is a no-op.
func (d *Disk) PutBlob(vid string, a graph.Artifact) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.blobs[vid]; ok {
		return nil
	}
	b, err := encodeBlob(vid, a)
	if err != nil {
		return err
	}
	if err := rec.WriteFile(d.blobPath(vid), b); err != nil {
		return err
	}
	sz := a.SizeBytes()
	d.blobs[vid] = sz
	d.logical[vid] = sz
	d.physical += sz
	return nil
}

// Get reads, verifies, and reassembles the artifact stored for a vertex.
// It returns (nil, nil) when the vertex is absent. A checksum or decode
// failure quarantines the offending file, drops the vertex from the index,
// and returns an error wrapping ErrCorrupt.
func (d *Disk) Get(vid string) (graph.Artifact, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if man, ok := d.frames[vid]; ok {
		cols := make([]*data.Column, len(man.colIDs))
		for i, cid := range man.colIDs {
			c, err := d.readColumnLocked(cid)
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					d.quarantine(d.colPath(cid))
				}
				d.dropFrameLocked(vid)
				return nil, fmt.Errorf("tier: %s: %w", vid, err)
			}
			if c.Name != man.names[i] {
				c = c.WithID(c.ID)
				c.Name = man.names[i]
			}
			cols[i] = c
		}
		f, err := data.NewFrame(cols...)
		if err != nil {
			d.dropFrameLocked(vid)
			return nil, fmt.Errorf("tier: reassembling %s: %w", vid, err)
		}
		return &graph.DatasetArtifact{Frame: f}, nil
	}
	if _, ok := d.blobs[vid]; ok {
		path := d.blobPath(vid)
		b, err := os.ReadFile(path)
		if err != nil {
			d.dropBlobLocked(vid)
			return nil, fmt.Errorf("tier: reading blob %s: %w", vid, err)
		}
		gotVid, content, err := decodeBlob(b)
		if err != nil || gotVid != vid {
			d.quarantine(path)
			d.dropBlobLocked(vid)
			if err == nil {
				err = fmt.Errorf("%w: blob identity mismatch", ErrCorrupt)
			}
			return nil, fmt.Errorf("tier: blob %s: %w", vid, err)
		}
		return content, nil
	}
	return nil, nil
}

// HasColumn reports whether a verified file for the column lineage ID is on
// disk, i.e. some spilled frame references it.
func (d *Disk) HasColumn(colID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.cols[colID]
	return ok
}

// Column reads and verifies one column file by lineage ID, so a frame can be
// assembled from columns that earlier frames spilled. It returns (nil, nil)
// when the tier holds no such column, and an error wrapping ErrCorrupt when
// the file fails verification; the file is left for Get, which quarantines it
// together with the frame it tears.
func (d *Disk) Column(colID string) (*data.Column, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.cols[colID]; !ok {
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

// dropFrameLocked removes a frame from the index (not its column files,
// which other manifests may share; unreferenced ones are GC'd at next Open).
func (d *Disk) dropFrameLocked(vid string) {
	man, ok := d.frames[vid]
	if !ok {
		return
	}
	for _, cid := range man.colIDs {
		st, ok := d.cols[cid]
		if !ok {
			continue
		}
		st.refs--
		if st.refs <= 0 {
			d.physical -= st.size
			delete(d.cols, cid)
		} else {
			d.cols[cid] = st
		}
	}
	_ = os.Remove(d.framePath(vid))
	delete(d.frames, vid)
	delete(d.logical, vid)
}

func (d *Disk) dropBlobLocked(vid string) {
	if sz, ok := d.blobs[vid]; ok {
		d.physical -= sz
		_ = os.Remove(d.blobPath(vid))
		delete(d.blobs, vid)
		delete(d.logical, vid)
	}
}

// Evict removes a vertex's content from disk: the manifest or blob file is
// deleted, column references released, and column files no longer
// referenced by any manifest deleted.
func (d *Disk) Evict(vid string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if man, ok := d.frames[vid]; ok {
		for _, cid := range man.colIDs {
			st, ok := d.cols[cid]
			if !ok {
				continue
			}
			st.refs--
			if st.refs <= 0 {
				d.physical -= st.size
				_ = os.Remove(d.colPath(cid))
				delete(d.cols, cid)
			} else {
				d.cols[cid] = st
			}
		}
		_ = os.Remove(d.framePath(vid))
		delete(d.frames, vid)
		delete(d.logical, vid)
		return
	}
	d.dropBlobLocked(vid)
}

// Has reports whether the vertex's content is on disk.
func (d *Disk) Has(vid string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, f := d.frames[vid]
	_, b := d.blobs[vid]
	return f || b
}

// LogicalSize returns the stored artifact's logical size, or 0 if absent.
func (d *Disk) LogicalSize(vid string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logical[vid]
}

// PhysicalBytes returns the deduplicated payload bytes resident on disk.
func (d *Disk) PhysicalBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.physical
}

// Len returns the number of artifacts on disk.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.frames) + len(d.blobs)
}

// StoredIDs returns the vertex IDs with content on disk, sorted for
// deterministic iteration.
func (d *Disk) StoredIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.frames)+len(d.blobs))
	for id := range d.frames {
		out = append(out, id)
	}
	for id := range d.blobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
