package remote

import (
	"bytes"
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
	"repro/internal/store"
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
//	"CUQ4" uvarint(node count) list(str column ID, uvarint size)
//	       node × count uvarint(wall time, ns) list(str inline ID, blob)
//	"COR2" list(str reuse ID) list(str vertex, str donor, float quality)
//	       uvarint(overhead, ns) list(float predicted load, s)
//	       list(str unknown frontier ID)
//	"CUR1" list(str wanted ID) list(list(uvarint held column index))
//	"CUC1" list(str unknown frontier ID)
//	"CPQ3" list(str column ID, str name) list(str ID, item)
//	"CPR1" list(str refused ID)
//	"CGR2" artifact
//
//	artifact = "B" blob
//	         | "D" manifest records
//	item     = "B" blob
//	         | "D" list(uvarint index into the body's column table) records
//	manifest = list(str column ID, str name), tier.WriteManifest
//	records  = list(uvarint len, len bytes: a tier column record)
//	blob     = uvarint len, len bytes: a tier blob record (len 0: no content)
//
// A node is a presence bitmask (uvarint, bit i for field i of the node's
// fields, in the order of the has* constants) followed by the fields whose
// bit is set, in bit order. A zero field is left out, and a bit set for one
// is refused; a bool is its bit alone. A parent is the index of an earlier
// node of the same list. A node list is written from a graph.DAG in its
// frontier form, in its TopoOrder, and read straight into one (listOf,
// writeNode, readDAG): the live nodes with their parents, and the frontier —
// the Computed nodes the walk up from the terminals stops at — as frontier
// nodes, which carry their kind and the run's measurements of them and
// nothing the graph already holds: no name, operation, parents or column
// lineage.
//
// The two messages that name many columns name each one once, in a column
// table, and refer to it by its index: an update's table holds each distinct
// lineage ID of its nodes with the column's size — a property of the ID —
// and a node's lineage is a list of indices into it; an upload's table holds
// each distinct (lineage ID, name) pair of its manifests, and an item's
// manifest is a list of indices into it. A table is canonical: its entries
// are in the order the message first names them, each named, none repeated,
// and every index is in range (tableUse). So a message that decodes
// re-encodes to the same bytes.
//
// An artifact is a model, an aggregate or a dataset without columns as its
// blob record of internal/tier ("B"), the bytes a blob file of the disk tier
// holds, or a dataset ("D"): its manifest — the frame's column lineage IDs in
// order, with the names they carry in it, the bytes a manifest file of the
// disk tier holds after its vertex ID — and columns as version-2 records
// of internal/tier, each checked against its own checksum when it is read. An
// upload item carries the columns the server does not hold, and its manifest
// as indices into the body's table; a download carries each distinct column
// of the frame once. A blob record is read without reflection, as every other
// field: no type descriptors travel, and nothing is compiled per request.
const (
	optimizeRequestMagic  = "COQ2"
	updateRequestMagic    = "CUQ4"
	optimizeResponseMagic = "COR2"
	updateResponseMagic   = "CUR1"
	updateConflictMagic   = "CUC1"
	uploadRequestMagic    = "CPQ3"
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
	// retiredColSizes carried a node's column sizes until the update's
	// column table took them (CUQ4): no node sets it.
	retiredColSizes
	hasTrainedKind
	isLoadedFromEG
	hasFetchTime
	hasFetchTier
	hasPredictedLoad
	isFrontier

	nodeFields = (1<<iota - 1) &^ retiredColSizes
	// columnFields never travel on an optimize request: the planner prices
	// from the Experiment Graph and the store, not from column lineage.
	columnFields = hasColumns
	// structureFields never travel on a frontier node: the graph holds them
	// under its ID.
	structureFields = hasName | hasOpHash | isExternal | hasWarmstartKind | hasParents
)

// marshaler and unmarshaler are the two directions of a body the protocol
// moves. A message has the directions its two ends use: an upload is only
// written by the client, a download only by the server.
type (
	marshaler   interface{ marshal() ([]byte, error) }
	unmarshaler interface{ unmarshal(body []byte) error }
)

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
	return m.marshalList(nodes)
}

// marshalList writes the request with nodes as its node list.
func (m *UpdateRequest) marshalList(nodes *nodeList) ([]byte, error) {
	if err := nodes.tabulate(); err != nil {
		return nil, err
	}
	var err error
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

// marshal encodes every column of the body in one batch (encodeColumns), as
// the server validates them, and then writes the items, into *m.buf when
// it has the capacity; the body becomes *m.buf.
func (m *uploadRequest) marshal() ([]byte, error) {
	var cols []*data.Column
	for _, up := range m.Items {
		cols = append(cols, up.Columns...)
	}
	records, bad, err := encodeColumns(cols)
	content := make([]encodedArtifact, len(m.Items))
	var table firstUse[columnPair]
	for i, up := range m.Items {
		k := len(up.Columns)
		switch {
		case err != nil && bad < k:
			return nil, fmt.Errorf("artifact %q: column %d: %w", up.ID, bad, err)
		case err != nil:
			bad -= k
			continue
		}
		if content[i], err = encodeArtifact(up.Blob, up.ColIDs, up.Names, up.Columns != nil, records[:k:k]); err == nil && content[i].form == datasetForm {
			content[i].refs, err = manifestRefs(&table, up.ColIDs, up.Names)
		}
		if err != nil {
			return nil, fmt.Errorf("artifact %q: %w", up.ID, err)
		}
		records = records[k:]
	}
	var buf []byte
	if m.buf != nil {
		buf = *m.buf
	}
	body, err := rec.ExactIn(buf, func(w *rec.Writer) {
		w.Raw([]byte(uploadRequestMagic))
		w.Uvarint(uint64(len(table.keys)))
		for _, p := range table.keys {
			w.ID(p.id)
			w.ID(p.name)
		}
		w.Uvarint(uint64(len(m.Items)))
		for i, up := range m.Items {
			w.ID(up.ID)
			writeArtifact(w, &content[i], true)
		}
	})
	if err == nil && m.buf != nil {
		*m.buf = body
	}
	return body, err
}

// uploadRecords is an upload body as the handler admits it: read by
// readUpload, its column records validated and kept, none decoded.
type uploadRecords struct {
	Items []artifactUpload
}

func (m *uploadRecords) unmarshal(body []byte) (err error) {
	m.Items, err = readUpload(body)
	return err
}

// readUpload reads an upload body and checks the shape of every item: an
// ID, and a blob that is not a dataset with columns or a manifest naming at
// least one column. Every column record of the body is then validated as one
// batch (validateColumns) and kept as its item's Records. The body is
// refused as a record-by-record read would refuse it: at the first record in
// body order that does not validate, or else at the first thing that cannot
// be read — every record framed lies before it. The column table is read
// first: each of its IDs and names is one string, which every manifest that
// names it shares.
func readUpload(body []byte) ([]artifactUpload, error) {
	r := open(body, uploadRequestMagic)
	table := readPairTable(&r)
	n := r.Count(3) // an ID, a form byte and a length at least
	if n == 0 {
		r.Fail("upload carries no artifact")
	}
	items := make([]artifactUpload, n)
	counts := make([]int, 0, n) // the records framed of each item read
	var framed [][]byte
	for i := 0; i < n && r.Err() == nil; i++ {
		up := &items[i]
		if up.ID = r.ID(); up.ID == "" {
			r.Fail("item %d: missing id", i)
		}
		var records [][]byte
		up.Blob, up.ColIDs, up.Names, records = readArtifact(&r, &table)
		framed = append(framed, records...)
		counts = append(counts, len(records))
	}
	records, bad, err := validateColumns(framed, table.known)
	for i, k := range counts {
		switch {
		case err != nil && bad < k:
			return nil, fmt.Errorf("artifact %q: %w", items[i].ID, rec.Nested(err, "column %d", bad))
		case err != nil:
			bad -= k
		case k > 0:
			items[i].Records, records = records[:k:k], records[k:]
		}
	}
	if r.Err() != nil && len(counts) > 0 {
		return nil, fmt.Errorf("artifact %q: %w", items[len(counts)-1].ID, r.Err())
	}
	table.use.done(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return items, nil
}

func (m *uploadResponse) marshal() ([]byte, error) {
	return marshal(uploadResponseMagic, func(w *rec.Writer) { writeIDs(w, m.Absent) })
}

func (m *uploadResponse) unmarshal(body []byte) error {
	r := open(body, uploadResponseMagic)
	m.Absent = readIDs(&r)
	return r.Done()
}

// storedDownload is the server's answer to GET /v1/artifact: an artifact
// as the store keeps it. A dataset is its manifest and the record of each
// distinct column, named as the manifest first names it, written as they
// are; anything else is a blob.
type storedDownload struct{ *store.Records }

func (m storedDownload) marshal() ([]byte, error) {
	records := make([][]byte, len(m.Columns))
	for i, r := range m.Columns {
		records[i] = r.Bytes()
	}
	content, err := encodeArtifact(m.Content, m.Manifest.ColIDs, m.Manifest.Names, m.Columns != nil, records)
	if err != nil {
		return nil, err
	}
	return marshal(downloadResponseMagic, func(w *rec.Writer) { writeArtifact(w, &content, false) })
}

// unmarshal reads a download and assembles a dataset's frame: every column
// of the manifest from the record of its lineage ID, under the manifest's
// name. The records must be exactly the manifest's distinct columns.
func (m *downloadResponse) unmarshal(body []byte) error {
	r := open(body, downloadResponseMagic)
	blob, colIDs, names, records := readArtifact(&r, nil)
	cols, bad, err := decodeColumns(records)
	if err != nil {
		return rec.Nested(err, "column %d", bad)
	}
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
	named := make(map[string]bool, len(cols))
	a, err := tier.Assemble(tier.Manifest{ColIDs: colIDs, Names: names}, func(id string) (*data.Column, error) {
		if byID[id] == nil {
			return nil, fmt.Errorf("column %s of the manifest not sent", id)
		}
		named[id] = true
		return byID[id], nil
	})
	if err == nil && len(named) != len(cols) {
		err = fmt.Errorf("%d columns sent that the manifest does not name", len(cols)-len(named))
	}
	if err != nil {
		return err
	}
	m.Content = a
	return nil
}

// encodedArtifact is an artifact encoded ahead of its message, so that the
// counting pass of marshal only adds up lengths: the blob record of a blob,
// or a manifest and column records. refs is an upload item's manifest, as
// indices into the body's column table.
type encodedArtifact struct {
	form          byte
	blob          []byte
	colIDs, names []string
	refs          []int
	records       [][]byte
}

// encodeArtifact encodes a blob, or — when there is a manifest or a column —
// a dataset of the given column records.
func encodeArtifact(blob graph.Artifact, colIDs, names []string, hasColumns bool, records [][]byte) (encodedArtifact, error) {
	if colIDs == nil && !hasColumns {
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
	return encodedArtifact{form: datasetForm, colIDs: colIDs, names: names, records: records}, nil
}

// Column records are encoded on the shared pool, one record per task, when
// the columns have at least wideCells cells (rows × columns), and decoded or
// validated there when the records hold at least wideBytes bytes — a
// download's, or every column of an upload body together: sizes known
// before the work starts. An OpenML-shaped frame (1 000 × 21, 160 KB of
// records) stays on its caller, where a second core saves little and costs
// the other client its share (DESIGN.md "Parallel execution"). Either way
// every result is the one a serial loop makes, in its place.
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

// writeArtifact writes an artifact; with table, a dataset's manifest as its
// refs, the upload item's form, and otherwise whole.
func writeArtifact(w *rec.Writer, a *encodedArtifact, table bool) {
	w.U8(a.form)
	if a.form == blobForm {
		writeBlob(w, a.blob)
		return
	}
	if table {
		w.Uvarint(uint64(len(a.refs)))
		for _, x := range a.refs {
			w.Uvarint(uint64(x))
		}
	} else {
		tier.WriteManifest(w, a.colIDs, a.names)
	}
	w.Uvarint(uint64(len(a.records)))
	for _, r := range a.records {
		writeBlob(w, r)
	}
}

// readArtifact reads an artifact: a blob, or a dataset's manifest — whole,
// or with table as indices into it — and its column records, framed and not
// yet checked. A blob must hold content; a manifest must name a column. The
// records framed before a failure to frame one are returned with it.
func readArtifact(r *rec.Reader, table *pairTable) (blob graph.Artifact, colIDs, names []string, records [][]byte) {
	switch form := r.U8(); form {
	case blobForm:
		if blob = readBlob(r); blob == nil {
			r.Fail("blob carries no content")
		}
		return blob, nil, nil, nil
	case datasetForm:
		if table != nil {
			colIDs, names = table.manifest(r)
		} else {
			colIDs, names = tier.ReadManifest(r)
		}
		if len(colIDs) == 0 {
			r.Fail("dataset manifest names no column")
			return nil, nil, nil, nil
		}
		return nil, colIDs, names, readRecords(r)
	default:
		r.Fail("unknown artifact form %q", form)
	}
	return
}

// readRecords frames a dataset's column records in body order.
func readRecords(r *rec.Reader) [][]byte {
	k := r.Count(1 + tier.MinColumnRecord)
	if k == 0 {
		return nil
	}
	records := make([][]byte, 0, k)
	for len(records) < k {
		b := r.Bytes(r.Count(1))
		if r.Err() != nil {
			break
		}
		records = append(records, b)
	}
	return records
}

// validateColumns validates column records (tier.ValidateColumn) as one
// batch: what the server does with an upload, whose column table is known.
// Each record is copied out of the body first, so that a record the store
// keeps does not keep the whole body alive after the others are gone.
func validateColumns(records [][]byte, known tier.Known) ([]tier.Record, int, error) {
	return eachColumn(records, wideRecords(records), func(b []byte) (tier.Record, error) { return tier.ValidateColumn(bytes.Clone(b), known) })
}

// decodeColumns decodes column records: what a client does with a download,
// and the one place the protocol decodes a column record.
func decodeColumns(records [][]byte) ([]*data.Column, int, error) {
	return eachColumn(records, wideRecords(records), tier.DecodeColumn)
}

// encodeColumns encodes columns as records (tier.EncodeColumn) as one batch.
func encodeColumns(cols []*data.Column) ([][]byte, int, error) {
	cells := 0
	for _, c := range cols {
		if c != nil {
			cells += c.Len()
		}
	}
	return eachColumn(cols, cells >= wideCells, tier.EncodeColumn)
}

// eachColumn converts every item of in with conv — on the pool when wide,
// one item per task — and returns the results, or the index and failure of
// the first that fails.
func eachColumn[In, Out any](in []In, wide bool, conv func(In) (Out, error)) ([]Out, int, error) {
	out := make([]Out, len(in))
	errs := make([]error, len(in))
	eachRecord(len(in), wide, func(i int) { out[i], errs[i] = conv(in[i]) })
	for i, err := range errs {
		if err != nil {
			return nil, i, err
		}
	}
	return out, 0, nil
}

// wideRecords reports whether records hold at least wideBytes bytes.
func wideRecords(records [][]byte) bool {
	size := 0
	for _, b := range records {
		size += len(b)
	}
	return size >= wideBytes
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

// open starts reading a body that must begin with magic. A body of another
// message, or of another version of this one, is refused naming what it
// begins with.
func open(body []byte, magic string) rec.Reader {
	r := rec.NewReader(body)
	if len(body) < len(magic) || string(body[:len(magic)]) != magic {
		r.Fail("a body that begins %q is not a %s message", body[:min(len(body), len(magic))], magic)
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

// firstUse numbers distinct keys in the order it is first given each: the
// entries of a column table as an encoder builds it, and the check that a
// decoder's table repeats no entry.
type firstUse[K comparable] struct {
	at   map[K]int
	keys []K
}

func newFirstUse[K comparable](n int) firstUse[K] {
	return firstUse[K]{at: make(map[K]int, n), keys: make([]K, 0, n)}
}

// index returns the number of k, and whether k was new.
func (t *firstUse[K]) index(k K) (int, bool) {
	if x, ok := t.at[k]; ok {
		return x, false
	}
	if t.at == nil {
		t.at = make(map[K]int)
	}
	t.at[k] = len(t.keys)
	t.keys = append(t.keys, k)
	return len(t.keys) - 1, true
}

// columnPair is an entry of an upload's column table: a lineage ID and the
// name a manifest gives it.
type columnPair struct{ id, name string }

// manifestRefs returns a manifest as indices into an upload's column
// table, adding the pairs it names first.
func manifestRefs(table *firstUse[columnPair], colIDs, names []string) ([]int, error) {
	if len(names) != len(colIDs) {
		return nil, fmt.Errorf("%d column ids, %d names", len(colIDs), len(names))
	}
	refs := make([]int, len(colIDs))
	for i := range colIDs {
		refs[i], _ = table.index(columnPair{colIDs[i], names[i]})
	}
	return refs, nil
}

// tableUse checks the references a message makes to its column table as
// they are read: each index in range, and each entry first named after
// every entry before it, the table's first-use order. used counts the
// entries named so far.
type tableUse struct{ size, used int }

// index reads a reference, or fails the reader and returns -1.
func (t *tableUse) index(r *rec.Reader) int {
	x := r.Uvarint()
	switch {
	case r.Err() != nil:
		return -1
	case x >= uint64(t.size):
		r.Fail("column index %d past a table of %d", x, t.size)
		return -1
	case x > uint64(t.used):
		r.Fail("column index %d named before index %d: the table is not in first-use order", x, t.used)
		return -1
	case x == uint64(t.used):
		t.used++
	}
	return int(x)
}

// done refuses a table with an entry no reference names.
func (t *tableUse) done(r *rec.Reader) {
	if t.used < t.size {
		r.Fail("column table entry %d is never named", t.used)
	}
}

// pairTable is an upload's column table as the server reads it.
type pairTable struct {
	pairs firstUse[columnPair]
	use   tableUse
}

// readPairTable reads an upload's column table; no entry may repeat.
func readPairTable(r *rec.Reader) pairTable {
	k := r.Count(2) // an ID and a name of a byte at least
	seen := newFirstUse[columnPair](k)
	for x := 0; x < k && r.Err() == nil; x++ {
		p := columnPair{r.ID(), r.ID()}
		if _, fresh := seen.index(p); !fresh && r.Err() == nil {
			r.Fail("column table entry %d repeats %s %q", x, p.id, p.name)
		}
	}
	return pairTable{pairs: seen, use: tableUse{size: len(seen.keys)}}
}

// known returns the table's strings for a column record's ID and name: a
// record is kept under strings its body already holds, and must name its
// column as an entry of the table does. A column the body names under two
// names travels once, under the name its first manifest gives it.
func (t *pairTable) known(id, name []byte) (string, string, bool) {
	x, ok := t.pairs.at[columnPair{string(id), string(name)}]
	if !ok {
		return "", "", false
	}
	p := t.pairs.keys[x]
	return p.id, p.name, true
}

// manifest reads an item's manifest, the table's strings in the order its
// indices name them.
func (t *pairTable) manifest(r *rec.Reader) (colIDs, names []string) {
	k := r.Count(1)
	if k == 0 {
		return nil, nil
	}
	colIDs, names = make([]string, k), make([]string, k)
	for j := range colIDs {
		x := t.use.index(r)
		if x < 0 {
			return nil, nil
		}
		colIDs[j], names[j] = t.pairs.keys[x].id, t.pairs.keys[x].name
	}
	return colIDs, names
}

// nodeList is a node list as the encoder writes it: the nodes that travel,
// in order, whether each travels as a frontier node, the position of each
// ID in the list, and the hash of each node's operation ("" for none), taken
// once for both of the encoder's passes; and, for an update, its column
// table (tabulate).
type nodeList struct {
	nodes    []*graph.Node
	frontier []bool
	at       map[string]int
	hashes   []string
	columns  columnTable
}

// columnTable is an update's column table as the encoder writes it: each
// distinct lineage ID of the list in first-use order with its size, and
// each node's lineage as indices into it.
type columnTable struct {
	ids   firstUse[string]
	sizes []int64
	refs  [][]int
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

// tabulate builds the list's column table from the lineage of every node
// that travels with it: a dataset's frame, or else the node's Columns and
// ColSizes. A column's size is a property of its lineage ID, so an ID of
// two sizes cannot be written, nor a node whose IDs and sizes differ in
// number.
func (l *nodeList) tabulate() error {
	// Sized once: every entry's reference, and the widest lineage's
	// distinct IDs at least.
	total, widest := 0, 0
	for i, n := range l.nodes {
		if l.frontier[i] {
			continue
		}
		k := len(n.Columns)
		if ds, ok := n.Content.(*graph.DatasetArtifact); ok && ds.Frame != nil {
			k = ds.Frame.NumCols()
		}
		total, widest = total+k, max(widest, k)
	}
	t := &l.columns
	t.ids, t.sizes, t.refs = newFirstUse[string](widest), make([]int64, 0, widest), make([][]int, len(l.nodes))
	refs := make([]int, 0, total)
	add := func(i int, id string, size int64) error {
		x, fresh := t.ids.index(id)
		switch {
		case fresh:
			t.sizes = append(t.sizes, size)
		case t.sizes[x] != size:
			return fmt.Errorf("node %d (%q): column %s of %d bytes, of %d at an earlier node", i, l.nodes[i].ID, id, size, t.sizes[x])
		}
		refs = append(refs, x)
		return nil
	}
	for i, n := range l.nodes {
		if l.frontier[i] {
			continue
		}
		start := len(refs)
		if ds, ok := n.Content.(*graph.DatasetArtifact); ok && ds.Frame != nil {
			for _, c := range ds.Frame.Columns() {
				if err := add(i, c.ID, c.SizeBytes()); err != nil {
					return err
				}
			}
		} else {
			if len(n.Columns) != len(n.ColSizes) {
				return fmt.Errorf("node %d (%q): %d column lineage IDs and %d sizes", i, n.ID, len(n.Columns), len(n.ColSizes))
			}
			for j, id := range n.Columns {
				if err := add(i, id, n.ColSizes[j]); err != nil {
					return err
				}
			}
		}
		t.refs[i] = refs[start:len(refs):len(refs)]
	}
	return nil
}

// write writes the list: with columns, the column table tabulate built
// after the node count and each node's lineage as indices into it; without,
// its nodes' column lineage stays behind.
func (l *nodeList) write(w *rec.Writer, columns bool) {
	w.Uvarint(uint64(len(l.nodes)))
	if columns {
		t := &l.columns
		w.Uvarint(uint64(len(t.ids.keys)))
		for x, id := range t.ids.keys {
			w.ID(id)
			w.Length("column size", t.sizes[x])
		}
	}
	for i := range l.nodes {
		l.writeNode(w, i, columns)
	}
}

// opFields returns what a node's operation contributes to its fields
// besides its hash: the external flag and the warmstart kind.
func opFields(op graph.Operation) (external bool, warmstart string) {
	if op == nil {
		return false, ""
	}
	ext, ok := op.(interface{ External() bool })
	external = ok && ext.External()
	if wop, ok := op.(graph.WarmstartableOp); ok && wop.CanWarmstart() {
		warmstart = wop.ModelKind()
	}
	return external, warmstart
}

// fields returns the presence bitmask of node n as it travels, as a
// frontier node or not, given what of it comes from elsewhere: its
// operation's, its trained kind and the number of its lineage entries that
// travel. A bit is set for each field that is not zero. The encoder writes
// it; the decoder refuses a node whose bitmask is not the one of the node
// it read, so that what decodes re-encodes to the same bytes.
func fields(n *graph.Node, hash, warmstart, trained string, external bool, cols int, frontier bool) uint64 {
	var has uint64
	for bit, set := range [...]bool{
		n.ID != "", n.Kind != 0, n.Name != "", hash != "", external,
		warmstart != "", len(n.Parents) > 0, n.Computed, n.ComputeTime != 0,
		n.SizeBytes != 0, math.Float64bits(n.Quality) != 0, cols > 0,
		false /* retiredColSizes */, trained != "", n.LoadedFromEG, n.FetchTime != 0,
		n.FetchTier != "", n.PredictedLoad != 0, n.Frontier,
	} {
		if set {
			has |= 1 << bit
		}
	}
	if frontier {
		has = has&^(structureFields|columnFields) | isComputed | isFrontier
	}
	return has
}

// writeNode writes node i, each parent as its position in the list. The op
// hash, the external flag and the warmstart kind come from the node's
// operation; the column lineage comes from the column table and the trained
// kind from a model, or — for a node that holds no model, as the decoder
// builds them — from the field that carries it. A frontier node leaves its
// structure and its column lineage behind, and is Computed. Quality is zero
// only as +0: its bits travel, so -0 and every NaN survive.
func (l *nodeList) writeNode(w *rec.Writer, i int, columns bool) {
	n, hash := l.nodes[i], l.hashes[i]
	external, warmstart := opFields(n.Op)
	trained := n.ModelKind
	if c, ok := n.Content.(*graph.ModelArtifact); ok && c.Model != nil {
		trained = c.Model.Kind()
	}
	var refs []int
	if columns {
		refs = l.columns.refs[i]
	}
	has := fields(n, hash, warmstart, trained, external, len(refs), l.frontier[i])
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
		w.Uvarint(uint64(len(refs)))
		for _, x := range refs {
			w.Uvarint(uint64(x))
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

// nodeColumns is an update's column table as the server reads it: each
// entry's lineage ID, one string that every node naming it shares, and
// size.
type nodeColumns struct {
	ids   []string
	sizes []int64
	use   tableUse
}

// readNodeColumns reads an update's column table; no ID may repeat.
func readNodeColumns(r *rec.Reader) nodeColumns {
	k := r.Count(2) // an ID and a size of a byte at least
	seen := newFirstUse[string](k)
	sizes := make([]int64, k)
	for x := 0; x < k && r.Err() == nil; x++ {
		id := r.ID()
		if _, fresh := seen.index(id); !fresh && r.Err() == nil {
			r.Fail("column table entry %d repeats %s", x, id)
		}
		sizes[x] = r.Length()
	}
	return nodeColumns{ids: seen.keys, sizes: sizes, use: tableUse{size: len(seen.keys)}}
}

// lineage reads a node's column lineage as indices into the table.
func (t *nodeColumns) lineage(r *rec.Reader) ([]string, []int64) {
	k := r.Count(1)
	if k == 0 {
		return nil, nil
	}
	ids, sizes := make([]string, k), make([]int64, k)
	for j := range ids {
		x := t.use.index(r)
		if x < 0 {
			return nil, nil
		}
		ids[j], sizes[j] = t.ids[x], t.sizes[x]
	}
	return ids, sizes
}

// readDAG reads a node list into a graph.DAG, with columns after its
// update's column table. A node that names an operation gets a wireOp for
// it, with the node's name and kind. It is the one place a node list is
// refused: every parent index must name an earlier node, no ID may repeat,
// every kind must be one of graph's four, a frontier node must be Computed
// and list no parents (it may be a parent), no node may set a bit for a
// zero field, and the column table must be canonical. So the handlers answer
// 400 to a list the graph could not take whole, and merge none of it.
func readDAG(r *rec.Reader, columns bool) *graph.DAG {
	n := r.Count(1)
	var table nodeColumns
	if columns {
		table = readNodeColumns(r)
	}
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
		var op wireOp
		if has&(hasOpHash|isExternal|hasWarmstartKind) != 0 {
			op = wireOp{name: nd.Name, kind: nd.Kind, external: has&isExternal != 0}
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
			nd.Columns, nd.ColSizes = table.lineage(r)
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
		if nd.Frontier = has&isFrontier != 0; nd.Frontier && (has&hasParents != 0 || !nd.Computed) {
			r.Fail("node %d (%q): a frontier node must be computed and list no parents", i, nd.ID)
			return nil
		}
		if want := fields(nd, op.hash, op.warmstartKind, nd.ModelKind, op.external, len(nd.Columns), nd.Frontier); has != want {
			r.Fail("node %d (%q): fields %#x, where what they hold is written %#x", i, nd.ID, has, want)
			return nil
		}
		if dag.Adopt(nd) != nd {
			r.Fail("node %d repeats ID %q", i, nd.ID)
			return nil
		}
	}
	if table.use.done(r); r.Err() != nil {
		return nil
	}
	return dag
}
