package remote

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/parallel"
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
//	           "G" download), direction ("Q" request | "R" response |
//	           "C" the 409 answer), version (the layout's: "1" for the
//	           first, one more at every change)
//	uvarint  = sizes and durations too, so none can be negative
//	str      = rec's id: 16 bytes for 32 lowercase hex digits (vertex IDs,
//	           op hashes, column lineage IDs), any other string as itself
//	float    = 8 bytes, the little-endian IEEE-754 bits
//	list(x)  = uvarint count, count × x
//
//	"COQ2" list(node without columns)
//	"CUQ3" list(node) uvarint(wall time, ns) list(str inline ID, blob)
//	"COR2" list(str reuse ID) list(str vertex, str donor, float quality)
//	       uvarint(overhead, ns) list(float predicted load, s)
//	       list(str unknown frontier ID)
//	"CUR1" list(str wanted ID) list(list(uvarint held column index))
//	"CUC1" list(str unknown frontier ID)
//	"CPQ2" list(str ID, artifact)
//	"CPR1" list(str refused ID)
//	"CGR2" artifact
//
//	artifact = "B" blob
//	         | "D" manifest list(uvarint len, len bytes: a tier column record)
//	manifest = list(str column ID, str name), tier.WriteManifest
//	blob     = uvarint len, len bytes: a tier blob record (len 0: no content)
//
// A node is a presence bitmask (uvarint, bit i for field i of the node's
// fields, in the order of the has* constants) followed by the fields whose
// bit is set, in bit order. A zero field is left out; a bool is its bit
// alone. A parent is the index of an earlier node of the same list. A node
// list is written from a graph.DAG in its frontier form, in its TopoOrder,
// and read straight into one (listOf, writeNode, readDAG): the live nodes
// with their parents, and the frontier — the Computed nodes the walk up from
// the terminals stops at — as frontier nodes, which carry their kind and
// the run's measurements of them and nothing the graph already holds: no
// name, operation, parents or column lineage.
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
	optimizeRequestMagic  = "COQ2"
	updateRequestMagic    = "CUQ3"
	optimizeResponseMagic = "COR2"
	updateResponseMagic   = "CUR1"
	updateConflictMagic   = "CUC1"
	uploadRequestMagic    = "CPQ2"
	uploadResponseMagic   = "CPR1"
	downloadResponseMagic = "CGR2"
)

// The forms of an artifact.
const (
	blobForm    = 'B'
	datasetForm = 'D'
)

// The fields of a node, in the order they travel: one presence bit each.
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
	isFrontier

	nodeFields = 1<<iota - 1
	// columnFields never travel on an optimize request: the planner prices
	// from the Experiment Graph and the store, not from column lineage.
	columnFields = hasColumns | hasColSizes
	// structureFields never travel on a frontier node: the graph holds them
	// under its ID.
	structureFields = hasName | hasOpHash | isExternal | hasWarmstartKind | hasParents
)

// message is a body the protocol moves.
type message interface {
	marshal() ([]byte, error)
	unmarshal(body []byte) error
}

func (m *OptimizeRequest) marshal() ([]byte, error) {
	nodes, err := listOf(m.DAG, nil)
	if err != nil {
		return nil, err
	}
	return marshal(optimizeRequestMagic, func(w *rec.Writer) { nodes.write(w, false) })
}

func (m *OptimizeRequest) unmarshal(body []byte) error {
	r := open(body, optimizeRequestMagic)
	m.DAG = readDAG(&r, false)
	return r.Done()
}

func (m *UpdateRequest) marshal() ([]byte, error) {
	nodes, err := listOf(m.DAG, m.Unknown)
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
		nodes.write(w, true)
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
	m.DAG = readDAG(&r, true)
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

// marshal writes the plan as its reuse IDs, sorted so that the answer is
// byte-stable, and — when the planner predicted loads — each one's predicted
// load in the same order; then the unknown frontier vertices.
func (m *optimizeResponse) marshal() ([]byte, error) {
	ids := make([]string, 0, len(m.Plan.Reuse))
	for id := range m.Plan.Reuse {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return marshal(optimizeResponseMagic, func(w *rec.Writer) {
		writeIDs(w, ids)
		w.Uvarint(uint64(len(m.Warmstarts)))
		for _, c := range m.Warmstarts {
			w.ID(c.VertexID)
			w.ID(c.DonorID)
			w.Float(c.Quality)
		}
		w.Length("overhead", int64(m.Overhead))
		if len(m.Plan.PredictedLoad) == 0 {
			w.Uvarint(0)
		} else {
			w.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.Float(m.Plan.PredictedLoad[id])
			}
		}
		writeIDs(w, m.Unknown)
	})
}

func (m *optimizeResponse) unmarshal(body []byte) error {
	r := open(body, optimizeResponseMagic)
	ids := readIDs(&r)
	*m = optimizeResponse{Optimization: core.Optimization{Plan: &reuse.Plan{Reuse: make(map[string]bool, len(ids))}}}
	for _, id := range ids {
		m.Plan.Reuse[id] = true
	}
	if n := r.Count(1 + 1 + 8); n > 0 {
		m.Warmstarts = make([]reuse.WarmstartCandidate, n)
		for i := range m.Warmstarts {
			m.Warmstarts[i] = reuse.WarmstartCandidate{VertexID: r.ID(), DonorID: r.ID(), Quality: r.Float()}
		}
	}
	m.Overhead = time.Duration(r.Length())
	if n := r.Count(8); n > 0 {
		if n != len(ids) {
			r.Fail("%d predicted loads for %d reused vertices", n, len(ids))
		} else {
			m.Plan.PredictedLoad = make(map[string]float64, n)
			for _, id := range ids {
				m.Plan.PredictedLoad[id] = r.Float()
			}
		}
	}
	m.Unknown = readIDs(&r)
	return r.Done()
}

func (m *frontierConflict) marshal() ([]byte, error) {
	return marshal(updateConflictMagic, func(w *rec.Writer) { writeIDs(w, m.Unknown) })
}

func (m *frontierConflict) unmarshal(body []byte) error {
	r := open(body, updateConflictMagic)
	m.Unknown = readIDs(&r)
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
	cells := 0
	for _, c := range cols {
		if c != nil {
			cells += c.Len()
		}
	}
	errs := make([]error, len(cols))
	eachRecord(len(cols), cells >= wideCells, func(i int) { a.records[i], errs[i] = tier.EncodeColumn(cols[i]) })
	for _, err := range errs {
		if err != nil {
			return encodedArtifact{}, err
		}
	}
	return a, nil
}

// A dataset's column records are encoded on the shared pool, one record per
// task, when it has at least wideCells cells (rows × columns), and decoded
// there when its records hold at least wideBytes bytes: sizes known before
// the work starts. An OpenML-shaped frame (1 000 × 21, 160 KB of records)
// stays on its caller, where a second core saves little and costs the other
// client its share (DESIGN.md "Parallel execution"). Either way every record
// is the one a serial loop makes, in its place.
const (
	wideCells = 32_000
	wideBytes = 256 << 10
)

// eachRecord calls fn(i) for every i in [0, n): on the pool when wide, else
// in order on the caller.
func eachRecord(n int, wide bool, fn func(i int)) {
	if !wide {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
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
		return nil, colIDs, names, readColumns(r)
	default:
		r.Fail("unknown artifact form %q", form)
	}
	return
}

// readColumns frames a dataset's column records in body order, then decodes
// them. It fails r as a record-by-record read would: at the first record in
// body order that does not decode, or else at the first that cannot be framed.
func readColumns(r *rec.Reader) []*data.Column {
	k := r.Count(1 + tier.MinColumnRecord)
	if k == 0 {
		return nil
	}
	// Framing reads a copy of r, so that a framing failure after a record
	// that does not decode leaves r free to report that record.
	framed := *r
	records := make([][]byte, 0, k)
	size := 0
	for len(records) < k {
		b := framed.Bytes(framed.Count(1))
		if framed.Err() != nil {
			break
		}
		records = append(records, b)
		size += len(b)
	}
	cols := make([]*data.Column, len(records))
	errs := make([]error, len(records))
	eachRecord(len(records), size >= wideBytes, func(i int) { cols[i], errs[i] = tier.DecodeColumn(records[i]) })
	for i, err := range errs {
		if err != nil {
			r.Nest(err, "column %d", i)
			return nil
		}
	}
	*r = framed
	return cols
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

// nodeList is a node list as the encoder writes it: the nodes that travel,
// in order, whether each travels as a frontier node, the position of each
// ID in the list, and the hash of each node's operation ("" for none), taken
// once for both of the encoder's passes.
type nodeList struct {
	nodes    []*graph.Node
	frontier []bool
	at       map[string]int
	hashes   []string
}

// listOf returns the node list of d in its frontier form. Walking up from
// the terminals, a node that is not Computed is live: it travels with its
// parents, and the walk goes on to them. A Computed node is the frontier: it
// travels without its parents, and nothing above it travels. A node of
// unknown (a frontier vertex the server does not hold) travels instead with
// its whole ancestry, every node of it with its parents. A node that arrived
// as a frontier node stays one. The nodes go in d's TopoOrder. A DAG with a
// node whose parent it does not hold cannot be written.
func listOf(d *graph.DAG, unknown []string) (*nodeList, error) {
	frontier := make(map[string]bool, d.Len()) // every node that travels: true for the frontier
	var stack []*graph.Node
	for _, id := range unknown {
		if n := d.Node(id); n != nil {
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := frontier[n.ID]; !ok {
			frontier[n.ID] = n.Frontier
			stack = append(stack, n.Parents...)
		}
	}
	stack = d.Terminals()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := frontier[n.ID]; ok {
			continue
		}
		frontier[n.ID] = n.Computed || n.Frontier
		if !frontier[n.ID] {
			stack = append(stack, n.Parents...)
		}
	}
	order := d.TopoOrder()
	l := &nodeList{nodes: order[:0], at: make(map[string]int, len(frontier))}
	for _, n := range order {
		f, ok := frontier[n.ID]
		if !ok {
			continue
		}
		i := len(l.nodes)
		if !f {
			for _, p := range n.Parents {
				if _, ok := l.at[p.ID]; !ok {
					return nil, fmt.Errorf("node %d (%q): parent %q is not a node of the DAG", i, n.ID, p.ID)
				}
			}
		}
		l.at[n.ID] = i
		l.nodes = append(l.nodes, n)
		l.frontier = append(l.frontier, f)
		hash := ""
		if n.Op != nil && !f {
			hash = n.Op.Hash()
		}
		l.hashes = append(l.hashes, hash)
	}
	return l, nil
}

// write writes the list; without columns, its nodes' column lineage stays
// behind.
func (l *nodeList) write(w *rec.Writer, columns bool) {
	w.Uvarint(uint64(len(l.nodes)))
	for i := range l.nodes {
		l.writeNode(w, i, columns)
	}
}

// writeNode writes node i, each parent as its position in the list. The op
// hash, the external flag and the warmstart kind come from the node's
// operation; the column lineage comes from a dataset's frame and the
// trained kind from a model, or — for a node that holds no such content, as
// the decoder builds them — from the fields that carry them. A frontier node
// leaves its structure and its column lineage behind, and is Computed.
// Quality is zero only as +0: its bits travel, so -0 and every NaN survive.
func (l *nodeList) writeNode(w *rec.Writer, i int, columns bool) {
	n, hash := l.nodes[i], l.hashes[i]
	var warmstart string
	var external bool
	if n.Op != nil {
		ext, ok := n.Op.(interface{ External() bool })
		external = ok && ext.External()
		if wop, ok := n.Op.(graph.WarmstartableOp); ok && wop.CanWarmstart() {
			warmstart = wop.ModelKind()
		}
	}
	ids, sizes, trained := n.Columns, n.ColSizes, n.ModelKind
	var frame []*data.Column
	switch c := n.Content.(type) {
	case *graph.DatasetArtifact:
		if c.Frame != nil {
			frame, ids, sizes = c.Frame.Columns(), nil, nil
		}
	case *graph.ModelArtifact:
		if c.Model != nil {
			trained = c.Model.Kind()
		}
	}
	nIDs, nSizes := len(frame)+len(ids), len(frame)+len(sizes) // one of the two sources is empty
	var has uint64
	for bit, set := range [...]bool{
		n.ID != "", n.Kind != 0, n.Name != "", hash != "", external,
		warmstart != "", len(n.Parents) > 0, n.Computed, n.ComputeTime != 0,
		n.SizeBytes != 0, math.Float64bits(n.Quality) != 0, nIDs > 0,
		nSizes > 0, trained != "", n.LoadedFromEG, n.FetchTime != 0,
		n.FetchTier != "", n.PredictedLoad != 0, n.Frontier,
	} {
		if set {
			has |= 1 << bit
		}
	}
	if !columns {
		has &^= columnFields
	}
	if l.frontier[i] {
		has = has&^(structureFields|columnFields) | isComputed | isFrontier
	}
	w.Uvarint(has)
	if has&hasID != 0 {
		w.ID(n.ID)
	}
	if has&hasKind != 0 {
		w.U8(byte(n.Kind))
	}
	if has&hasName != 0 {
		w.ID(n.Name)
	}
	if has&hasOpHash != 0 {
		w.ID(hash)
	}
	if has&hasWarmstartKind != 0 {
		w.ID(warmstart)
	}
	if has&hasParents != 0 {
		w.Uvarint(uint64(len(n.Parents)))
		for _, p := range n.Parents {
			w.Uvarint(uint64(l.at[p.ID]))
		}
	}
	if has&hasComputeTime != 0 {
		w.Length("compute time", int64(n.ComputeTime))
	}
	if has&hasSizeBytes != 0 {
		w.Length("size", n.SizeBytes)
	}
	if has&hasQuality != 0 {
		w.Float(n.Quality)
	}
	if has&hasColumns != 0 {
		w.Uvarint(uint64(nIDs))
		for _, c := range frame {
			w.ID(c.ID)
		}
		for _, id := range ids {
			w.ID(id)
		}
	}
	if has&hasColSizes != 0 {
		w.Uvarint(uint64(nSizes))
		for _, c := range frame {
			w.Length("column size", c.SizeBytes())
		}
		for _, size := range sizes {
			w.Length("column size", size)
		}
	}
	if has&hasTrainedKind != 0 {
		w.ID(trained)
	}
	if has&hasFetchTime != 0 {
		w.Length("fetch time", int64(n.FetchTime))
	}
	if has&hasFetchTier != 0 {
		w.ID(n.FetchTier)
	}
	if has&hasPredictedLoad != 0 {
		w.Length("predicted load", int64(n.PredictedLoad))
	}
}

// readDAG reads a node list into a graph.DAG. A node that names an
// operation gets a wireOp for it, with the node's name and kind. It is the
// one place a node list is refused: every parent index must name an earlier
// node, no ID may repeat, every kind must be one of graph's four, a
// dataset's column lineage must carry one size per column, and a frontier
// node must be Computed and list no parents (it may be a parent). So the
// handlers answer 400 to a list the graph could not take whole, and merge
// none of it.
func readDAG(r *rec.Reader, columns bool) *graph.DAG {
	n := r.Count(1)
	if r.Err() != nil {
		return nil
	}
	allowed := uint64(nodeFields)
	if !columns {
		allowed &^= columnFields
	}
	dag := graph.NewDAG()
	nodes := make([]graph.Node, n)
	for i := range nodes {
		nd := &nodes[i]
		has := r.Uvarint()
		if has&^allowed != 0 {
			r.Fail("node %d: unknown fields %#x", i, has&^allowed)
			return nil
		}
		if has&hasID != 0 {
			nd.ID = r.ID()
		}
		if has&hasKind != 0 {
			if nd.Kind = graph.Kind(r.U8()); nd.Kind > graph.SupernodeKind {
				r.Fail("node %d (%q): unknown kind %d", i, nd.ID, nd.Kind)
				return nil
			}
		}
		if has&hasName != 0 {
			nd.Name = r.ID()
		}
		if has&(hasOpHash|isExternal|hasWarmstartKind) != 0 {
			op := wireOp{name: nd.Name, kind: nd.Kind, external: has&isExternal != 0}
			if has&hasOpHash != 0 {
				op.hash = r.ID()
			}
			if has&hasWarmstartKind != 0 {
				op.warmstartKind = r.ID()
			}
			nd.Op = op
		}
		if has&hasParents != 0 {
			if k := r.Count(1); k > 0 {
				nd.Parents = make([]*graph.Node, k)
				for j := range nd.Parents {
					p := r.Uvarint()
					if p >= uint64(i) {
						r.Fail("node %d (%q): parent index %d does not precede it", i, nd.ID, p)
						return nil
					}
					nd.Parents[j] = &nodes[p]
				}
			}
		}
		nd.Computed = has&isComputed != 0
		if has&hasComputeTime != 0 {
			nd.ComputeTime = time.Duration(r.Length())
		}
		if has&hasSizeBytes != 0 {
			nd.SizeBytes = r.Length()
		}
		if has&hasQuality != 0 {
			nd.Quality = r.Float()
		}
		if has&hasColumns != 0 {
			nd.Columns = readIDs(r)
		}
		if has&hasColSizes != 0 {
			if k := r.Count(1); k > 0 {
				nd.ColSizes = make([]int64, k)
				for j := range nd.ColSizes {
					nd.ColSizes[j] = r.Length()
				}
			}
		}
		if has&hasTrainedKind != 0 {
			nd.ModelKind = r.ID()
		}
		nd.LoadedFromEG = has&isLoadedFromEG != 0
		if has&hasFetchTime != 0 {
			nd.FetchTime = time.Duration(r.Length())
		}
		if has&hasFetchTier != 0 {
			nd.FetchTier = r.ID()
		}
		if has&hasPredictedLoad != 0 {
			nd.PredictedLoad = time.Duration(r.Length())
		}
		if r.Err() != nil {
			return nil
		}
		if len(nd.Columns) != len(nd.ColSizes) {
			r.Fail("node %d (%q): %d column lineage IDs and %d sizes", i, nd.ID, len(nd.Columns), len(nd.ColSizes))
			return nil
		}
		if nd.Frontier = has&isFrontier != 0; nd.Frontier && (has&hasParents != 0 || !nd.Computed) {
			r.Fail("node %d (%q): a frontier node must be computed and list no parents", i, nd.ID)
			return nil
		}
		if dag.Adopt(nd) != nd {
			r.Fail("node %d repeats ID %q", i, nd.ID)
			return nil
		}
	}
	return dag
}
