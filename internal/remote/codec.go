package remote

import (
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/rec"
	"repro/internal/reuse"
	"repro/internal/tier"
)

// The codec of every body the protocol moves (DESIGN.md "Remote protocol →
// The meta-data codec" and "→ The artifact messages"): POST /v1/optimize and
// POST /v1/update both ways, the upload body of POST /v1/artifact and its
// answer, and the answer to GET /v1/artifact. Each message is written into a
// buffer of exactly its length and read back without reflection; a body
// must be one whole message, nothing before and nothing after it. Its
// primitives are internal/rec's:
//
//	message  = magic fields
//	magic    = "C", route ("O" optimize | "U" update | "P" upload |
//	           "G" download), direction ("Q" request | "R" response),
//	           version ("1", or "2" for a message that carries blob records)
//	uvarint  = sizes and durations too, so none can be negative
//	str      = rec's id: 16 bytes for 32 lowercase hex digits (vertex IDs,
//	           op hashes, column lineage IDs), any other string as itself
//	float    = 8 bytes, the little-endian IEEE-754 bits
//	list(x)  = uvarint count, count × x
//
//	"COQ1" list(node without columns)
//	"CUQ2" list(node) uvarint(wall time, ns) list(str inline ID, blob)
//	"COR1" list(str reuse ID) list(str vertex, str donor, float quality)
//	       uvarint(overhead, ns) list(float predicted load, s)
//	"CUR1" list(str wanted ID) list(list(uvarint held column index))
//	"CPQ2" list(str ID, artifact)
//	"CPR1" list(str refused ID)
//	"CGR2" artifact
//
//	artifact = "B" blob
//	         | "D" manifest list(uvarint len, len bytes: a tier column record)
//	manifest = list(str column ID, str name), tier.WriteManifest
//	blob     = uvarint len, len bytes: a tier blob record (len 0: no content)
//
// A node is a presence bitmask (uvarint, bit i for field i of nodeFields)
// followed by the fields whose bit is set, in bit order. A zero field is
// left out; a bool is its bit alone. A parent is the index of an earlier
// node of the same list.
//
// An artifact is a model, an aggregate or a dataset without columns as its
// blob record of internal/tier ("B"), the bytes a blob file of the disk tier
// holds, or a dataset ("D"): its manifest — the frame's column lineage IDs in
// order, with the names they carry in it, the bytes a manifest file of the
// disk tier holds after its vertex ID — and columns as version-2 records
// of internal/tier, each checked against its own checksum when it is read. An
// upload item carries the columns the server does not hold; a download
// carries each distinct column of the frame once. A blob record is read
// without reflection, as every other field: no type descriptors travel, and
// nothing is compiled per request.
const (
	optimizeRequestMagic  = "COQ1"
	updateRequestMagic    = "CUQ2"
	optimizeResponseMagic = "COR1"
	updateResponseMagic   = "CUR1"
	uploadRequestMagic    = "CPQ2"
	uploadResponseMagic   = "CPR1"
	downloadResponseMagic = "CGR2"
)

// The forms of an artifact.
const (
	blobForm    = 'B'
	datasetForm = 'D'
)

// The fields of a node, in WireNode's order: one presence bit each.
const (
	hasID = 1 << iota
	hasKind
	hasName
	hasOpHash
	isExternal
	hasWarmstartKind
	hasParents
	isComputed
	hasComputeTime
	hasSizeBytes
	hasQuality
	hasColumns
	hasColSizes
	hasTrainedKind
	isLoadedFromEG
	hasFetchTime
	hasFetchTier
	hasPredictedLoad

	nodeFields = 1<<iota - 1
	// columnFields never travel on an optimize request: the planner prices
	// from the Experiment Graph and the store, not from column lineage.
	columnFields = hasColumns | hasColSizes
)

// message is a body the protocol moves.
type message interface {
	marshal() ([]byte, error)
	unmarshal(body []byte) error
}

func (m *OptimizeRequest) marshal() ([]byte, error) {
	parents, err := parentIndices(m.Nodes)
	if err != nil {
		return nil, err
	}
	return marshal(optimizeRequestMagic, func(w *rec.Writer) { writeNodes(w, m.Nodes, parents, false) })
}

func (m *OptimizeRequest) unmarshal(body []byte) error {
	r := open(body, optimizeRequestMagic)
	m.Nodes = readNodes(&r, false)
	return r.Done()
}

func (m *UpdateRequest) marshal() ([]byte, error) {
	parents, err := parentIndices(m.Nodes)
	if err != nil {
		return nil, err
	}
	// The records go into one buffer ahead of the message: ends[i] is where
	// the record of inline artifact i ends (a nil content is the empty one).
	var records []byte
	ends := make([]int, len(m.Inline))
	for i, a := range m.Inline {
		if a.Content != nil {
			if records, err = tier.AppendBlob(records, a.Content); err != nil {
				return nil, fmt.Errorf("inline artifact %q: %w", a.ID, err)
			}
		}
		ends[i] = len(records)
	}
	return marshal(updateRequestMagic, func(w *rec.Writer) {
		writeNodes(w, m.Nodes, parents, true)
		w.Length("wall time", int64(m.WallTime))
		w.Uvarint(uint64(len(m.Inline)))
		start := 0
		for i, a := range m.Inline {
			w.ID(a.ID)
			writeBlob(w, records[start:ends[i]])
			start = ends[i]
		}
	})
}

func (m *UpdateRequest) unmarshal(body []byte) error {
	r := open(body, updateRequestMagic)
	m.Nodes = readNodes(&r, true)
	m.WallTime = time.Duration(r.Length())
	if n := r.Count(2); n > 0 { // an ID and a record length at least
		m.Inline = make([]InlineArtifact, n)
		for i := range m.Inline {
			a := &m.Inline[i]
			a.ID = r.ID()
			if a.Content = readBlob(&r); r.Err() != nil {
				return fmt.Errorf("inline artifact %q: %w", a.ID, r.Err())
			}
		}
	}
	return r.Done()
}

func (m *OptimizeResponse) marshal() ([]byte, error) {
	return marshal(optimizeResponseMagic, func(w *rec.Writer) {
		writeIDs(w, m.ReuseIDs)
		w.Uvarint(uint64(len(m.Warmstarts)))
		for _, c := range m.Warmstarts {
			w.ID(c.VertexID)
			w.ID(c.DonorID)
			w.Float(c.Quality)
		}
		w.Length("overhead", int64(m.Overhead))
		w.Uvarint(uint64(len(m.PredictedLoadSec)))
		w.Floats(m.PredictedLoadSec)
	})
}

func (m *OptimizeResponse) unmarshal(body []byte) error {
	r := open(body, optimizeResponseMagic)
	m.ReuseIDs = readIDs(&r)
	if n := r.Count(1 + 1 + 8); n > 0 {
		m.Warmstarts = make([]reuse.WarmstartCandidate, n)
		for i := range m.Warmstarts {
			m.Warmstarts[i] = reuse.WarmstartCandidate{VertexID: r.ID(), DonorID: r.ID(), Quality: r.Float()}
		}
	}
	m.Overhead = time.Duration(r.Length())
	if n := r.Count(8); n > 0 {
		m.PredictedLoadSec = make([]float64, n)
		for i := range m.PredictedLoadSec {
			m.PredictedLoadSec[i] = r.Float()
		}
	}
	return r.Done()
}

func (m *UpdateResponse) marshal() ([]byte, error) {
	return marshal(updateResponseMagic, func(w *rec.Writer) {
		writeIDs(w, m.WantContent)
		w.Uvarint(uint64(len(m.Have)))
		for _, held := range m.Have {
			w.Uvarint(uint64(len(held)))
			for _, i := range held {
				w.Length("held column index", int64(i))
			}
		}
	})
}

func (m *UpdateResponse) unmarshal(body []byte) error {
	r := open(body, updateResponseMagic)
	m.WantContent = readIDs(&r)
	if n := r.Count(1); n > 0 {
		m.Have = make([][]int, n)
		for i := range m.Have {
			if k := r.Count(1); k > 0 {
				m.Have[i] = make([]int, k)
				for j := range m.Have[i] {
					m.Have[i][j] = int(r.Length())
				}
			}
		}
	}
	return r.Done()
}

func (m *uploadRequest) marshal() ([]byte, error) {
	content := make([]encodedArtifact, len(m.Items))
	for i, up := range m.Items {
		var err error
		if content[i], err = encodeArtifact(up.Blob, up.ColIDs, up.Names, up.Columns); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", up.ID, err)
		}
	}
	return marshal(uploadRequestMagic, func(w *rec.Writer) {
		w.Uvarint(uint64(len(m.Items)))
		for i, up := range m.Items {
			w.ID(up.ID)
			writeArtifact(w, &content[i])
		}
	})
}

// unmarshal reads an upload body and checks the shape of every item: an ID,
// and a blob that is not a dataset with columns or a manifest naming at
// least one column, whose records all decode.
func (m *uploadRequest) unmarshal(body []byte) error {
	r := open(body, uploadRequestMagic)
	n := r.Count(3) // an ID, a form byte and a length at least
	if n == 0 {
		r.Fail("upload carries no artifact")
	}
	m.Items = make([]artifactUpload, n)
	for i := range m.Items {
		up := &m.Items[i]
		if up.ID = r.ID(); up.ID == "" {
			r.Fail("item %d: missing id", i)
		}
		up.Blob, up.ColIDs, up.Names, up.Columns = readArtifact(&r)
		if r.Err() != nil {
			return fmt.Errorf("artifact %q: %w", up.ID, r.Err())
		}
	}
	return r.Done()
}

func (m *uploadResponse) marshal() ([]byte, error) {
	return marshal(uploadResponseMagic, func(w *rec.Writer) { writeIDs(w, m.Absent) })
}

func (m *uploadResponse) unmarshal(body []byte) error {
	r := open(body, uploadResponseMagic)
	m.Absent = readIDs(&r)
	return r.Done()
}

// marshal writes a dataset with columns as its manifest and each distinct
// column once, anything else as a blob.
func (m *downloadResponse) marshal() ([]byte, error) {
	var content encodedArtifact
	var err error
	if ds, ok := m.Content.(*graph.DatasetArtifact); ok && ds.Frame != nil && ds.Frame.NumCols() > 0 {
		f := ds.Frame
		content, err = encodeArtifact(nil, f.ColumnIDs(), f.ColumnNames(), distinctColumns(f.Columns(), nil))
	} else {
		content, err = encodeArtifact(m.Content, nil, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	return marshal(downloadResponseMagic, func(w *rec.Writer) { writeArtifact(w, &content) })
}

// unmarshal reads a download and assembles a dataset's frame: every column
// of the manifest from the record of its lineage ID, under the manifest's
// name. The records must be exactly the manifest's distinct columns.
func (m *downloadResponse) unmarshal(body []byte) error {
	r := open(body, downloadResponseMagic)
	blob, colIDs, names, cols := readArtifact(&r)
	if err := r.Done(); err != nil {
		return err
	}
	if blob != nil {
		m.Content = blob
		return nil
	}
	byID := make(map[string]*data.Column, len(cols))
	for _, c := range cols {
		if byID[c.ID] != nil {
			return fmt.Errorf("column %s sent twice", c.ID)
		}
		byID[c.ID] = c
	}
	frameCols := make([]*data.Column, len(colIDs))
	named := make(map[string]bool, len(colIDs))
	for i, id := range colIDs {
		c := byID[id]
		if c == nil {
			return fmt.Errorf("column %s of the manifest not sent", id)
		}
		named[id] = true
		if c.Name != names[i] {
			c = c.WithID(id)
			c.Name = names[i]
		}
		frameCols[i] = c
	}
	if len(named) != len(cols) {
		return fmt.Errorf("%d columns sent that the manifest does not name", len(cols)-len(named))
	}
	f, err := data.NewFrame(frameCols...)
	if err != nil {
		return err
	}
	m.Content = &graph.DatasetArtifact{Frame: f}
	return nil
}

// encodedArtifact is an artifact encoded ahead of its message, so that the
// counting pass of marshal only adds up lengths: the blob record of a blob,
// or a manifest and column records.
type encodedArtifact struct {
	form          byte
	blob          []byte
	colIDs, names []string
	records       [][]byte
}

// encodeArtifact encodes a blob, or — when there is a manifest or a column —
// a dataset.
func encodeArtifact(blob graph.Artifact, colIDs, names []string, cols []*data.Column) (encodedArtifact, error) {
	if colIDs == nil && cols == nil {
		a := encodedArtifact{form: blobForm}
		if blob != nil { // nil travels as the empty record, which the reader refuses
			var err error
			if a.blob, err = tier.AppendBlob(nil, blob); err != nil {
				return encodedArtifact{}, err
			}
		}
		return a, nil
	}
	if blob != nil {
		return encodedArtifact{}, fmt.Errorf("carries both a blob and a manifest")
	}
	a := encodedArtifact{form: datasetForm, colIDs: colIDs, names: names, records: make([][]byte, len(cols))}
	for i, c := range cols {
		var err error
		if a.records[i], err = tier.EncodeColumn(c); err != nil {
			return encodedArtifact{}, err
		}
	}
	return a, nil
}

func writeBlob(w *rec.Writer, record []byte) {
	w.Uvarint(uint64(len(record)))
	w.Raw(record)
}

func writeArtifact(w *rec.Writer, a *encodedArtifact) {
	w.U8(a.form)
	if a.form == blobForm {
		writeBlob(w, a.blob)
		return
	}
	tier.WriteManifest(w, a.colIDs, a.names)
	w.Uvarint(uint64(len(a.records)))
	for _, r := range a.records {
		writeBlob(w, r)
	}
}

// readArtifact reads an artifact: a blob, or a dataset's manifest and
// columns. A blob must hold content; a manifest must name a column; every
// record must verify.
func readArtifact(r *rec.Reader) (blob graph.Artifact, colIDs, names []string, cols []*data.Column) {
	switch form := r.U8(); form {
	case blobForm:
		if blob = readBlob(r); blob == nil {
			r.Fail("blob carries no content")
		}
		return blob, nil, nil, nil
	case datasetForm:
		if colIDs, names = tier.ReadManifest(r); len(colIDs) == 0 {
			r.Fail("dataset manifest names no column")
			return
		}
		if k := r.Count(1 + tier.MinColumnRecord); k > 0 {
			cols = make([]*data.Column, k)
			for i := range cols {
				c, err := tier.DecodeColumn(r.Bytes(r.Count(1)))
				if err != nil {
					r.Nest(err, "column %d", i)
					return
				}
				cols[i] = c
			}
		}
		return nil, colIDs, names, cols
	default:
		r.Fail("unknown artifact form %q", form)
	}
	return
}

// readBlob reads a blob record: nil for the empty record and on an error.
func readBlob(r *rec.Reader) graph.Artifact {
	p := r.Bytes(r.Count(1))
	if len(p) == 0 {
		return nil
	}
	a, err := tier.DecodeBlob(p)
	if err != nil {
		r.Nest(err, "blob")
		return nil
	}
	return a
}

// parentIndices returns the parents of every node as indices of earlier
// nodes, all in one list in node order. A parent that does not precede its
// child cannot be written.
func parentIndices(nodes []WireNode) ([]int, error) {
	at := make(map[string]int, len(nodes))
	var out []int
	for i := range nodes {
		wn := &nodes[i]
		for _, p := range wn.Parents {
			j, ok := at[p]
			if !ok {
				return nil, fmt.Errorf("wire node %d (%q): parent %q does not precede it", i, wn.ID, p)
			}
			out = append(out, j)
		}
		at[wn.ID] = i
	}
	return out, nil
}

// marshal writes a message into a buffer of exactly its length.
func marshal(magic string, write func(*rec.Writer)) ([]byte, error) {
	return rec.Exact(func(w *rec.Writer) {
		w.Raw([]byte(magic))
		write(w)
	})
}

// open starts reading a body that must begin with magic.
func open(body []byte, magic string) rec.Reader {
	r := rec.NewReader(body)
	if len(body) < len(magic) || string(body[:len(magic)]) != magic {
		r.Fail("not a %s message", magic)
	}
	r.Bytes(len(magic))
	return r
}

func writeIDs(w *rec.Writer, list []string) {
	w.Uvarint(uint64(len(list)))
	for _, s := range list {
		w.ID(s)
	}
}

func readIDs(r *rec.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.ID()
	}
	return out
}

// writeNodes writes a node list; parents is what parentIndices returned for
// it. Without columns, the nodes' column lineage stays behind.
func writeNodes(w *rec.Writer, nodes []WireNode, parents []int, columns bool) {
	w.Uvarint(uint64(len(nodes)))
	for i := range nodes {
		wn := &nodes[i]
		has := wn.fields()
		if !columns {
			has &^= columnFields
		}
		w.Uvarint(has)
		if has&hasID != 0 {
			w.ID(wn.ID)
		}
		if has&hasKind != 0 {
			w.U8(byte(wn.Kind))
		}
		if has&hasName != 0 {
			w.ID(wn.Name)
		}
		if has&hasOpHash != 0 {
			w.ID(wn.OpHash)
		}
		if has&hasWarmstartKind != 0 {
			w.ID(wn.WarmstartKind)
		}
		if has&hasParents != 0 {
			w.Uvarint(uint64(len(wn.Parents)))
			for _, p := range parents[:len(wn.Parents)] {
				w.Uvarint(uint64(p))
			}
		}
		parents = parents[len(wn.Parents):]
		if has&hasComputeTime != 0 {
			w.Length("compute time", int64(wn.ComputeTime))
		}
		if has&hasSizeBytes != 0 {
			w.Length("size", wn.SizeBytes)
		}
		if has&hasQuality != 0 {
			w.Float(wn.Quality)
		}
		if has&hasColumns != 0 {
			writeIDs(w, wn.Columns)
		}
		if has&hasColSizes != 0 {
			w.Uvarint(uint64(len(wn.ColSizes)))
			for _, s := range wn.ColSizes {
				w.Length("column size", s)
			}
		}
		if has&hasTrainedKind != 0 {
			w.ID(wn.TrainedKind)
		}
		if has&hasFetchTime != 0 {
			w.Length("fetch time", int64(wn.FetchTime))
		}
		if has&hasFetchTier != 0 {
			w.ID(wn.FetchTier)
		}
		if has&hasPredictedLoad != 0 {
			w.Length("predicted load", int64(wn.PredictedLoad))
		}
	}
}

// fields returns the presence bitmask of a node: a bit for every field that
// is not zero. Quality is zero only as +0: its bits travel, so -0 and every
// NaN survive.
func (wn *WireNode) fields() uint64 {
	var has uint64
	for i, set := range [...]bool{
		wn.ID != "", wn.Kind != 0, wn.Name != "", wn.OpHash != "", wn.External,
		wn.WarmstartKind != "", len(wn.Parents) > 0, wn.Computed, wn.ComputeTime != 0,
		wn.SizeBytes != 0, math.Float64bits(wn.Quality) != 0, len(wn.Columns) > 0,
		len(wn.ColSizes) > 0, wn.TrainedKind != "", wn.LoadedFromEG, wn.FetchTime != 0,
		wn.FetchTier != "", wn.PredictedLoad != 0,
	} {
		if set {
			has |= 1 << i
		}
	}
	return has
}

// readNodes reads a node list. A parent index must name an earlier node: the
// parent of a node that does not precede it, as FromWire has it.
func readNodes(r *rec.Reader, columns bool) []WireNode {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	allowed := uint64(nodeFields)
	if !columns {
		allowed &^= columnFields
	}
	nodes := make([]WireNode, n)
	for i := range nodes {
		wn := &nodes[i]
		has := r.Uvarint()
		if has&^allowed != 0 {
			r.Fail("wire node %d: unknown fields %#x", i, has&^allowed)
			return nil
		}
		if has&hasID != 0 {
			wn.ID = r.ID()
		}
		if has&hasKind != 0 {
			wn.Kind = graph.Kind(r.U8())
		}
		if has&hasName != 0 {
			wn.Name = r.ID()
		}
		if has&hasOpHash != 0 {
			wn.OpHash = r.ID()
		}
		wn.External = has&isExternal != 0
		if has&hasWarmstartKind != 0 {
			wn.WarmstartKind = r.ID()
		}
		if has&hasParents != 0 {
			if k := r.Count(1); k > 0 {
				wn.Parents = make([]string, k)
				for j := range wn.Parents {
					p := r.Uvarint()
					if p >= uint64(i) {
						r.Fail("wire node %d (%q): parent index %d does not precede it", i, wn.ID, p)
						return nil
					}
					wn.Parents[j] = nodes[p].ID
				}
			}
		}
		wn.Computed = has&isComputed != 0
		if has&hasComputeTime != 0 {
			wn.ComputeTime = time.Duration(r.Length())
		}
		if has&hasSizeBytes != 0 {
			wn.SizeBytes = r.Length()
		}
		if has&hasQuality != 0 {
			wn.Quality = r.Float()
		}
		if has&hasColumns != 0 {
			wn.Columns = readIDs(r)
		}
		if has&hasColSizes != 0 {
			if k := r.Count(1); k > 0 {
				wn.ColSizes = make([]int64, k)
				for j := range wn.ColSizes {
					wn.ColSizes[j] = r.Length()
				}
			}
		}
		if has&hasTrainedKind != 0 {
			wn.TrainedKind = r.ID()
		}
		wn.LoadedFromEG = has&isLoadedFromEG != 0
		if has&hasFetchTime != 0 {
			wn.FetchTime = time.Duration(r.Length())
		}
		if has&hasFetchTier != 0 {
			wn.FetchTier = r.ID()
		}
		if has&hasPredictedLoad != 0 {
			wn.PredictedLoad = time.Duration(r.Length())
		}
		if r.Err() != nil {
			return nil
		}
	}
	return nodes
}
