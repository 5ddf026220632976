package tier

import (
	"repro/internal/data"
	"repro/internal/graph"
)

// Manifest is a dataset artifact as a column-deduplicating tier holds it: its
// column lineage IDs in order, with the names they carry in this frame.
type Manifest struct {
	ColIDs []string
	Names  []string
}

// ManifestOf returns the manifest of a frame of cols.
func ManifestOf(cols []*data.Column) Manifest {
	man := Manifest{ColIDs: make([]string, len(cols)), Names: make([]string, len(cols))}
	for i, c := range cols {
		man.ColIDs[i], man.Names[i] = c.ID, c.Name
	}
	return man
}

// Assemble builds the dataset a manifest describes from its Columns.
func Assemble(man Manifest, col func(colID string) (*data.Column, error)) (*graph.DatasetArtifact, error) {
	cols, err := Columns(man, col)
	if err != nil {
		return nil, err
	}
	f, err := data.NewFrame(cols...)
	if err != nil {
		return nil, err
	}
	return &graph.DatasetArtifact{Frame: f}, nil
}

// Columns returns the columns a manifest names, each taken from col and
// carried under the name the manifest gives it, sharing the values: a tier
// holds a column once per lineage ID, whatever a frame calls it. It returns
// the first error col returns.
func Columns(man Manifest, col func(colID string) (*data.Column, error)) ([]*data.Column, error) {
	cols := make([]*data.Column, len(man.ColIDs))
	for i, id := range man.ColIDs {
		c, err := col(id)
		if err != nil {
			return nil, err
		}
		if c.Name != man.Names[i] {
			c = c.WithID(c.ID)
			c.Name = man.Names[i]
		}
		cols[i] = c
	}
	return cols, nil
}

type colRef struct {
	size int64
	refs int // manifests naming the column, once per naming
}

// Index is the bookkeeping of a column-deduplicating tier (§5.3): the
// vertices it holds, each as a manifest or a blob size; every column lineage
// ID once, with its size and the manifests that name it; each vertex's
// logical size, and the physical bytes of the whole. It holds no content —
// the memory tier keeps values beside it, the disk tier files — and is not
// safe for concurrent use: the tier that owns it locks.
type Index struct {
	frames   map[string]Manifest
	blobs    map[string]int64 // vertex ID → blob size
	cols     map[string]colRef
	logical  map[string]int64 // every vertex held, frame or blob
	physical int64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		frames:  make(map[string]Manifest),
		blobs:   make(map[string]int64),
		cols:    make(map[string]colRef),
		logical: make(map[string]int64),
	}
}

// AddFrame records a dataset under vid, where colSize(i) is the size of the
// column man.ColIDs[i], and returns the indices into man.ColIDs of the
// columns new to the index, whose values the tier must now keep. A vertex
// already held is left as it is.
func (x *Index) AddFrame(vid string, man Manifest, colSize func(i int) int64) (fresh []int) {
	if x.Has(vid) {
		return nil
	}
	var logical int64
	for i, id := range man.ColIDs {
		sz := colSize(i)
		logical += sz
		c, held := x.cols[id]
		if !held {
			c.size = sz
			x.physical += sz
			if fresh == nil {
				fresh = make([]int, 0, len(man.ColIDs)-i)
			}
			fresh = append(fresh, i)
		}
		c.refs++
		x.cols[id] = c
	}
	x.frames[vid] = man
	x.logical[vid] = logical
	return fresh
}

// AddBlob records a whole-blob artifact of size bytes under vid. A vertex
// already held is left as it is.
func (x *Index) AddBlob(vid string, size int64) {
	if x.Has(vid) {
		return
	}
	x.blobs[vid] = size
	x.logical[vid] = size
	x.physical += size
}

// Drop forgets vid and returns the column lineage IDs no manifest names any
// more, whose values the tier may now let go.
func (x *Index) Drop(vid string) (freed []string) {
	if sz, ok := x.blobs[vid]; ok {
		x.physical -= sz
		delete(x.blobs, vid)
	}
	if man, ok := x.frames[vid]; ok {
		for i, id := range man.ColIDs {
			c := x.cols[id]
			if c.refs--; c.refs > 0 {
				x.cols[id] = c
				continue
			}
			x.physical -= c.size
			delete(x.cols, id)
			if freed == nil {
				freed = make([]string, 0, len(man.ColIDs)-i)
			}
			freed = append(freed, id)
		}
		delete(x.frames, vid)
	}
	delete(x.logical, vid)
	return freed
}

// Frame returns the manifest of a dataset held under vid.
func (x *Index) Frame(vid string) (Manifest, bool) {
	man, ok := x.frames[vid]
	return man, ok
}

// Has reports whether vid is held, as a frame or a blob.
func (x *Index) Has(vid string) bool {
	_, ok := x.logical[vid]
	return ok
}

// HasColumn reports whether some manifest names the column lineage ID.
func (x *Index) HasColumn(colID string) bool {
	_, ok := x.cols[colID]
	return ok
}

// Logical returns the size of vid's artifact as if stored without
// deduplication, or 0 when it is not held.
func (x *Index) Logical(vid string) int64 { return x.logical[vid] }

// Physical returns the deduplicated bytes held: each column once, and every
// blob.
func (x *Index) Physical() int64 { return x.physical }

// Len returns the number of vertices held.
func (x *Index) Len() int { return len(x.logical) }

// IDs returns the vertices held, in no order.
func (x *Index) IDs() []string {
	out := make([]string, 0, len(x.logical))
	for id := range x.logical {
		out = append(out, id)
	}
	return out
}
