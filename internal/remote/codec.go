package remote

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/reuse"
	"repro/internal/tier"
)

// The codec of every body the protocol moves (DESIGN.md "Remote protocol →
// The meta-data codec" and "→ The artifact messages"): POST /v1/optimize and
// POST /v1/update both ways, the upload body of POST /v1/artifact and its
// answer, and the answer to GET /v1/artifact. Each message is written into a
// buffer of exactly its length and read back without reflection; a body
// must be one whole message, nothing before and nothing after it.
//
//	message  = magic fields
//	magic    = "C", route ("O" optimize | "U" update | "P" upload |
//	           "G" download), direction ("Q" request | "R" response),
//	           version ("1", or "2" for a message that carries blob records)
//	uvarint  = encoding/binary's unsigned varint; sizes and durations too, so
//	           none can be negative
//	str      = uvarint 0, 16 bytes       a string of 32 lowercase hex digits
//	                                     (vertex IDs, op hashes, column
//	                                     lineage IDs)
//	         | uvarint len+1, len bytes  any other string
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
//	         | "D" list(str column ID, str name)
//	           list(uvarint len, len bytes: a tier column record)
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
// order, with the names they carry in it — and columns as version-2 records
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
	return marshal(optimizeRequestMagic, func(e *encoder) { e.nodes(m.Nodes, parents, false) })
}

func (m *OptimizeRequest) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(optimizeRequestMagic)
	m.Nodes = d.nodes(false)
	return d.finish()
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
	return marshal(updateRequestMagic, func(e *encoder) {
		e.nodes(m.Nodes, parents, true)
		e.length("wall time", int64(m.WallTime))
		e.uvarint(uint64(len(m.Inline)))
		start := 0
		for i, a := range m.Inline {
			e.str(a.ID)
			e.blob(records[start:ends[i]])
			start = ends[i]
		}
	})
}

func (m *UpdateRequest) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(updateRequestMagic)
	m.Nodes = d.nodes(true)
	m.WallTime = time.Duration(d.length())
	if n := d.count(2); n > 0 { // an ID and a record length at least
		m.Inline = make([]InlineArtifact, n)
		for i := range m.Inline {
			a := &m.Inline[i]
			a.ID = d.str()
			if a.Content = d.blob(); d.err != nil {
				return fmt.Errorf("inline artifact %q: %w", a.ID, d.err)
			}
		}
	}
	return d.finish()
}

func (m *OptimizeResponse) marshal() ([]byte, error) {
	return marshal(optimizeResponseMagic, func(e *encoder) {
		e.strs(m.ReuseIDs)
		e.uvarint(uint64(len(m.Warmstarts)))
		for _, c := range m.Warmstarts {
			e.str(c.VertexID)
			e.str(c.DonorID)
			e.float(c.Quality)
		}
		e.length("overhead", int64(m.Overhead))
		e.uvarint(uint64(len(m.PredictedLoadSec)))
		for _, s := range m.PredictedLoadSec {
			e.float(s)
		}
	})
}

func (m *OptimizeResponse) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(optimizeResponseMagic)
	m.ReuseIDs = d.strs()
	if n := d.count(1 + 1 + 8); n > 0 {
		m.Warmstarts = make([]reuse.WarmstartCandidate, n)
		for i := range m.Warmstarts {
			m.Warmstarts[i] = reuse.WarmstartCandidate{VertexID: d.str(), DonorID: d.str(), Quality: d.float()}
		}
	}
	m.Overhead = time.Duration(d.length())
	if n := d.count(8); n > 0 {
		m.PredictedLoadSec = make([]float64, n)
		for i := range m.PredictedLoadSec {
			m.PredictedLoadSec[i] = d.float()
		}
	}
	return d.finish()
}

func (m *UpdateResponse) marshal() ([]byte, error) {
	return marshal(updateResponseMagic, func(e *encoder) {
		e.strs(m.WantContent)
		e.uvarint(uint64(len(m.Have)))
		for _, held := range m.Have {
			e.uvarint(uint64(len(held)))
			for _, i := range held {
				e.length("held column index", int64(i))
			}
		}
	})
}

func (m *UpdateResponse) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(updateResponseMagic)
	m.WantContent = d.strs()
	if n := d.count(1); n > 0 {
		m.Have = make([][]int, n)
		for i := range m.Have {
			if k := d.count(1); k > 0 {
				m.Have[i] = make([]int, k)
				for j := range m.Have[i] {
					m.Have[i][j] = int(d.length())
				}
			}
		}
	}
	return d.finish()
}

func (m *uploadRequest) marshal() ([]byte, error) {
	content := make([]encodedArtifact, len(m.Items))
	for i, up := range m.Items {
		var err error
		if content[i], err = encodeArtifact(up.Blob, up.ColIDs, up.Names, up.Columns); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", up.ID, err)
		}
	}
	return marshal(uploadRequestMagic, func(e *encoder) {
		e.uvarint(uint64(len(m.Items)))
		for i, up := range m.Items {
			e.str(up.ID)
			e.artifact(&content[i])
		}
	})
}

// unmarshal reads an upload body and checks the shape of every item: an ID,
// and a blob that is not a dataset with columns or a manifest naming at
// least one column, whose records all decode.
func (m *uploadRequest) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(uploadRequestMagic)
	n := d.count(3) // an ID, a form byte and a length at least
	if n == 0 {
		d.fail("upload carries no artifact")
	}
	m.Items = make([]artifactUpload, n)
	for i := range m.Items {
		up := &m.Items[i]
		if up.ID = d.str(); up.ID == "" {
			d.fail("item %d: missing id", i)
		}
		up.Blob, up.ColIDs, up.Names, up.Columns = d.artifact()
		if d.err != nil {
			return fmt.Errorf("artifact %q: %w", up.ID, d.err)
		}
	}
	return d.finish()
}

func (m *uploadResponse) marshal() ([]byte, error) {
	return marshal(uploadResponseMagic, func(e *encoder) { e.strs(m.Absent) })
}

func (m *uploadResponse) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(uploadResponseMagic)
	m.Absent = d.strs()
	return d.finish()
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
	return marshal(downloadResponseMagic, func(e *encoder) { e.artifact(&content) })
}

// unmarshal reads a download and assembles a dataset's frame: every column
// of the manifest from the record of its lineage ID, under the manifest's
// name. The records must be exactly the manifest's distinct columns.
func (m *downloadResponse) unmarshal(body []byte) error {
	d := decoder{b: body}
	d.header(downloadResponseMagic)
	blob, colIDs, names, cols := d.artifact()
	if err := d.finish(); err != nil {
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
	if len(names) != len(colIDs) {
		return encodedArtifact{}, fmt.Errorf("%d column ids, %d names", len(colIDs), len(names))
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

func (e *encoder) blob(record []byte) {
	e.uvarint(uint64(len(record)))
	e.write(record)
}

func (e *encoder) artifact(a *encodedArtifact) {
	e.write([]byte{a.form})
	if a.form == blobForm {
		e.blob(a.blob)
		return
	}
	e.uvarint(uint64(len(a.colIDs)))
	for i := range a.colIDs {
		e.str(a.colIDs[i])
		e.str(a.names[i])
	}
	e.uvarint(uint64(len(a.records)))
	for _, r := range a.records {
		e.uvarint(uint64(len(r)))
		e.write(r)
	}
}

// minRecord is the size of the shortest column record: magic, dtype, two
// empty strings, a row count and a checksum.
const minRecord = 4 + 1 + 2 + 2 + 4 + 4

// artifact reads an artifact: a blob, or a dataset's manifest and columns.
// A blob must hold content; a manifest must name a column; every record must
// verify.
func (d *decoder) artifact() (blob graph.Artifact, colIDs, names []string, cols []*data.Column) {
	switch form := d.u8(); form {
	case blobForm:
		if blob = d.blob(); blob == nil {
			d.fail("blob carries no content")
		}
		return blob, nil, nil, nil
	case datasetForm:
		n := d.count(2)
		if n == 0 {
			d.fail("dataset manifest names no column")
			return
		}
		colIDs, names = make([]string, n), make([]string, n)
		for i := range colIDs {
			colIDs[i], names[i] = d.str(), d.str()
		}
		if k := d.count(1 + minRecord); k > 0 {
			cols = make([]*data.Column, k)
			for i := range cols {
				rec := d.next(d.uvarint())
				if d.err != nil {
					return
				}
				c, err := tier.DecodeColumn(rec)
				if err != nil {
					d.fail("column %d: %v", i, err)
					return
				}
				cols[i] = c
			}
		}
		return nil, colIDs, names, cols
	default:
		if d.err == nil {
			d.fail("unknown artifact form %q", form)
		}
	}
	return
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

// marshal runs write twice: once to count the message's bytes, once into a
// buffer of exactly that length.
func marshal(magic string, write func(*encoder)) ([]byte, error) {
	var e encoder
	e.writeString(magic)
	write(&e)
	if e.err != nil {
		return nil, e.err
	}
	e = encoder{b: make([]byte, 0, e.n)}
	e.writeString(magic)
	write(&e)
	return e.b, nil
}

// encoder writes a message: while b is nil it only counts the bytes.
type encoder struct {
	b   []byte
	n   int
	err error
}

func (e *encoder) write(p []byte) {
	e.n += len(p)
	if e.b != nil {
		e.b = append(e.b, p...)
	}
}

func (e *encoder) writeString(s string) {
	e.n += len(s)
	if e.b != nil {
		e.b = append(e.b, s...)
	}
}

func (e *encoder) uvarint(v uint64) {
	var p [binary.MaxVarintLen64]byte
	e.write(p[:binary.PutUvarint(p[:], v)])
}

// length writes a size or a duration, which must not be negative.
func (e *encoder) length(what string, v int64) {
	if v < 0 && e.err == nil {
		e.err = fmt.Errorf("%s %d is negative", what, v)
	}
	e.uvarint(uint64(v))
}

func (e *encoder) float(f float64) {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], math.Float64bits(f))
	e.write(p[:])
}

func (e *encoder) str(s string) {
	if !isHexID(s) {
		e.uvarint(uint64(len(s)) + 1)
		e.writeString(s)
		return
	}
	var p [17]byte // tag 0, then the 16 bytes the digits spell
	for i := 0; i < 16; i++ {
		p[1+i] = unhex(s[2*i])<<4 | unhex(s[2*i+1])
	}
	e.write(p[:])
}

func (e *encoder) strs(list []string) {
	e.uvarint(uint64(len(list)))
	for _, s := range list {
		e.str(s)
	}
}

// nodes writes a node list; parents is what parentIndices returned for it.
// Without columns, the nodes' column lineage stays behind.
func (e *encoder) nodes(nodes []WireNode, parents []int, columns bool) {
	e.uvarint(uint64(len(nodes)))
	for i := range nodes {
		wn := &nodes[i]
		has := wn.fields()
		if !columns {
			has &^= columnFields
		}
		e.uvarint(has)
		if has&hasID != 0 {
			e.str(wn.ID)
		}
		if has&hasKind != 0 {
			e.write([]byte{byte(wn.Kind)})
		}
		if has&hasName != 0 {
			e.str(wn.Name)
		}
		if has&hasOpHash != 0 {
			e.str(wn.OpHash)
		}
		if has&hasWarmstartKind != 0 {
			e.str(wn.WarmstartKind)
		}
		if has&hasParents != 0 {
			e.uvarint(uint64(len(wn.Parents)))
			for _, p := range parents[:len(wn.Parents)] {
				e.uvarint(uint64(p))
			}
		}
		parents = parents[len(wn.Parents):]
		if has&hasComputeTime != 0 {
			e.length("compute time", int64(wn.ComputeTime))
		}
		if has&hasSizeBytes != 0 {
			e.length("size", wn.SizeBytes)
		}
		if has&hasQuality != 0 {
			e.float(wn.Quality)
		}
		if has&hasColumns != 0 {
			e.strs(wn.Columns)
		}
		if has&hasColSizes != 0 {
			e.uvarint(uint64(len(wn.ColSizes)))
			for _, s := range wn.ColSizes {
				e.length("column size", s)
			}
		}
		if has&hasTrainedKind != 0 {
			e.str(wn.TrainedKind)
		}
		if has&hasFetchTime != 0 {
			e.length("fetch time", int64(wn.FetchTime))
		}
		if has&hasFetchTier != 0 {
			e.str(wn.FetchTier)
		}
		if has&hasPredictedLoad != 0 {
			e.length("predicted load", int64(wn.PredictedLoad))
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

// isHexID reports whether s is 32 lowercase hex digits, the form of every ID
// graph and data mint.
func isHexID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// decoder reads a message off a body. The first error sticks: every read
// after it returns zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// header consumes the magic the message must start with.
func (d *decoder) header(magic string) {
	if len(d.b) < len(magic) || string(d.b[:len(magic)]) != magic {
		d.fail("not a %s message", magic)
		return
	}
	d.b = d.b[len(magic):]
}

// finish reports the first error, or an error if bytes are left over.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d bytes after the message", len(d.b))
	}
	return d.err
}

// next consumes n bytes.
func (d *decoder) next(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail("%w: %d bytes wanted, %d left", io.ErrUnexpectedEOF, n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// length reads a size or a duration.
func (d *decoder) length() int64 {
	v := d.uvarint()
	if v > math.MaxInt64 {
		d.fail("length %d out of range", v)
		return 0
	}
	return int64(v)
}

// count reads the length of a list whose items take at least min bytes
// each, and refuses one that the bytes left cannot hold — before anything
// is allocated for it.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("%d items in %d bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) u8() byte {
	if p := d.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) float() float64 {
	if p := d.next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *decoder) str() string {
	tag := d.uvarint()
	if tag > 0 {
		return string(d.next(tag - 1))
	}
	p := d.next(16)
	if p == nil {
		return ""
	}
	var h [32]byte
	hex.Encode(h[:], p)
	return string(h[:])
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// blob reads a blob record: nil for the empty record and on an error.
func (d *decoder) blob() graph.Artifact {
	p := d.next(d.uvarint())
	if len(p) == 0 {
		return nil
	}
	a, err := tier.DecodeBlob(p)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return a
}

// nodes reads a node list. A parent index must name an earlier node: the
// parent of a node that does not precede it, as FromWire has it.
func (d *decoder) nodes(columns bool) []WireNode {
	n := d.count(1)
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
		has := d.uvarint()
		if has&^allowed != 0 {
			d.fail("wire node %d: unknown fields %#x", i, has&^allowed)
			return nil
		}
		if has&hasID != 0 {
			wn.ID = d.str()
		}
		if has&hasKind != 0 {
			wn.Kind = graph.Kind(d.u8())
		}
		if has&hasName != 0 {
			wn.Name = d.str()
		}
		if has&hasOpHash != 0 {
			wn.OpHash = d.str()
		}
		wn.External = has&isExternal != 0
		if has&hasWarmstartKind != 0 {
			wn.WarmstartKind = d.str()
		}
		if has&hasParents != 0 {
			if k := d.count(1); k > 0 {
				wn.Parents = make([]string, k)
				for j := range wn.Parents {
					p := d.uvarint()
					if p >= uint64(i) {
						d.fail("wire node %d (%q): parent index %d does not precede it", i, wn.ID, p)
						return nil
					}
					wn.Parents[j] = nodes[p].ID
				}
			}
		}
		wn.Computed = has&isComputed != 0
		if has&hasComputeTime != 0 {
			wn.ComputeTime = time.Duration(d.length())
		}
		if has&hasSizeBytes != 0 {
			wn.SizeBytes = d.length()
		}
		if has&hasQuality != 0 {
			wn.Quality = d.float()
		}
		if has&hasColumns != 0 {
			wn.Columns = d.strs()
		}
		if has&hasColSizes != 0 {
			if k := d.count(1); k > 0 {
				wn.ColSizes = make([]int64, k)
				for j := range wn.ColSizes {
					wn.ColSizes[j] = d.length()
				}
			}
		}
		if has&hasTrainedKind != 0 {
			wn.TrainedKind = d.str()
		}
		wn.LoadedFromEG = has&isLoadedFromEG != 0
		if has&hasFetchTime != 0 {
			wn.FetchTime = time.Duration(d.length())
		}
		if has&hasFetchTier != 0 {
			wn.FetchTier = d.str()
		}
		if has&hasPredictedLoad != 0 {
			wn.PredictedLoad = time.Duration(d.length())
		}
		if d.err != nil {
			return nil
		}
	}
	return nodes
}
