package tier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/graph"
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

	frameMagic  = "CTM1"
	blobMagic   = "CTB2"
	blobMagicV1 = "CTB1"
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

// writeFileAtomic writes b to path via a temp file, fsync, and rename, so a
// crash mid-write never leaves a torn file under the final name.
func writeFileAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("tier: writing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("tier: syncing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	return nil
}

// Manifest file format (version 1):
//
//	magic "CTM1", u16 vidLen + vid, u32 count,
//	count × (u16 idLen + colID, u16 nameLen + name), u32 CRC-32C
func encodeManifest(vid string, man manifest) ([]byte, error) {
	if len(vid) > maxMetaLen {
		return nil, fmt.Errorf("tier: vertex id too long (%d bytes)", len(vid))
	}
	b := make([]byte, 0, 64)
	b = append(b, frameMagic...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vid)))
	b = append(b, vid...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(man.colIDs)))
	for i, cid := range man.colIDs {
		if len(cid) > maxMetaLen || len(man.names[i]) > maxMetaLen {
			return nil, fmt.Errorf("tier: column id/name too long")
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(cid)))
		b = append(b, cid...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(man.names[i])))
		b = append(b, man.names[i]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

func decodeManifest(b []byte) (vid string, man manifest, err error) {
	if len(b) < len(frameMagic)+4 || string(b[:len(frameMagic)]) != frameMagic {
		return "", man, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return "", man, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	r := &colReader{b: body, off: len(frameMagic)}
	vidLen, ok := r.u16()
	if !ok {
		return "", man, fmt.Errorf("%w: truncated manifest", ErrCorrupt)
	}
	vb, ok := r.take(int(vidLen))
	if !ok {
		return "", man, fmt.Errorf("%w: truncated manifest", ErrCorrupt)
	}
	vid = string(vb)
	count, ok := r.u32()
	if !ok {
		return "", man, fmt.Errorf("%w: truncated manifest", ErrCorrupt)
	}
	for i := 0; i < int(count); i++ {
		idLen, ok := r.u16()
		if !ok {
			return "", man, fmt.Errorf("%w: truncated manifest entry", ErrCorrupt)
		}
		id, ok := r.take(int(idLen))
		if !ok {
			return "", man, fmt.Errorf("%w: truncated manifest entry", ErrCorrupt)
		}
		nameLen, ok := r.u16()
		if !ok {
			return "", man, fmt.Errorf("%w: truncated manifest entry", ErrCorrupt)
		}
		name, ok := r.take(int(nameLen))
		if !ok {
			return "", man, fmt.Errorf("%w: truncated manifest entry", ErrCorrupt)
		}
		man.colIDs = append(man.colIDs, string(id))
		man.names = append(man.names, string(name))
	}
	if r.off != len(body) {
		return "", man, fmt.Errorf("%w: trailing manifest bytes", ErrCorrupt)
	}
	return vid, man, nil
}

// Blob file format, version 2:
//
//	magic "CTB2", u16 vidLen + vid, blob record (AppendBlob), u32 CRC-32C
//
// Version 1 ("CTB1") is read, never written (blobv1.go): the same frame
// around a gob payload.
func encodeBlob(vid string, a graph.Artifact) ([]byte, error) {
	if len(vid) > maxMetaLen {
		return nil, fmt.Errorf("tier: vertex id too long (%d bytes)", len(vid))
	}
	b := make([]byte, 0, 256)
	b = append(b, blobMagic...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vid)))
	b = append(b, vid...)
	b, err := AppendBlob(b, a)
	if err != nil {
		return nil, fmt.Errorf("tier: encoding blob %s: %w", vid, err)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

func decodeBlob(b []byte) (vid string, content graph.Artifact, err error) {
	if len(b) < len(blobMagic)+4 {
		return "", nil, fmt.Errorf("%w: bad blob magic", ErrCorrupt)
	}
	magic := string(b[:len(blobMagic)])
	if magic != blobMagic && magic != blobMagicV1 {
		return "", nil, fmt.Errorf("%w: bad blob magic", ErrCorrupt)
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return "", nil, fmt.Errorf("%w: blob checksum mismatch", ErrCorrupt)
	}
	r := &colReader{b: body, off: len(blobMagic)}
	vidLen, ok := r.u16()
	if !ok {
		return "", nil, fmt.Errorf("%w: truncated blob", ErrCorrupt)
	}
	vb, ok := r.take(int(vidLen))
	if !ok {
		return "", nil, fmt.Errorf("%w: truncated blob", ErrCorrupt)
	}
	if magic == blobMagicV1 {
		content, err = decodeBlobV1(body[r.off:])
	} else {
		content, err = DecodeBlob(body[r.off:])
	}
	if err != nil {
		return "", nil, err
	}
	return string(vb), content, nil
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
		if err := writeFileAtomic(d.colPath(c.ID), b); err != nil {
			return err
		}
		d.cols[c.ID] = colState{size: c.SizeBytes()}
		d.physical += c.SizeBytes()
	}
	mb, err := encodeManifest(vid, man)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(d.framePath(vid), mb); err != nil {
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
	if err := writeFileAtomic(d.blobPath(vid), b); err != nil {
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
