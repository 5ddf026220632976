package tier

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/rec"
)

// ColumnInfo is what a column record says of its column without it being
// decoded.
type ColumnInfo struct {
	ID, Name string
	Type     data.DType
	Rows     int
	// Size is the SizeBytes of the decoded column: what the store's budget
	// and its deduplicated byte counts charge for it.
	Size int64
}

// InfoOf returns what the record of c says of it.
func InfoOf(c *data.Column) ColumnInfo {
	return ColumnInfo{ID: c.ID, Name: c.Name, Type: c.Type, Rows: c.Len(), Size: c.SizeBytes()}
}

// Record is a version-2 column record that verified, with what it says of
// its column. Only ValidateColumn, RecordOf and the disk tier make one, so
// its bytes are a record DecodeColumn accepts. It is the form in which the
// store keeps an uploaded column, spills it to disk and sends it in a
// download.
type Record struct {
	ColumnInfo
	b []byte
}

// Bytes returns the record.
func (r Record) Bytes() []byte { return r.b }

// RecordOf encodes c as a Record.
func RecordOf(c *data.Column) (Record, error) {
	b, err := EncodeColumn(c)
	if err != nil {
		return Record{}, err
	}
	return Record{InfoOf(c), b}, nil
}

// Known returns the strings a caller already holds for a column's lineage
// ID and name, given their bytes, and false for a pair it does not hold.
type Known func(id, name []byte) (string, string, bool)

// ValidateColumn reads a column record as DecodeColumn reads it, making
// every check — checksum, structure, canonical mode, dictionary rules — but
// builds no column: values are read into pooled scratch and dropped. The
// record is returned as b itself. A version-1 record is refused, as
// DecodeColumn refuses it. The Record's ID and name are fresh strings when known is nil;
// otherwise they are known's strings, and a record whose ID and name known
// does not hold is refused.
func ValidateColumn(b []byte, known Known) (Record, error) {
	info, _, err := readColumn(b, known, false)
	if err != nil {
		return Record{}, err
	}
	return Record{info, b}, nil
}

// scratch holds what reading a payload needs when no column is built: the
// values of a Float64 or Int64 column, and the entries of a float
// dictionary with their varint lengths.
type scratch struct {
	vals []float64
	is   []int64
	dict []float64
	lens []int
}

// scratchPool recycles scratch: every record of an upload is validated.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) floats(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	return s.vals[:n]
}

func (s *scratch) ints(n int) []int64 {
	if cap(s.is) < n {
		s.is = make([]int64, n)
	}
	return s.is[:n]
}

func (s *scratch) entries(k int) ([]float64, []int) {
	if cap(s.dict) < k {
		s.dict, s.lens = make([]float64, k), make([]int, k)
	}
	return s.dict[:k], s.lens[:k]
}

// Named returns the record carrying name in its name field, resealed: a
// tier holds a column once per lineage ID, under the name it first arrived
// with, and a frame may call it something else (a column Concat renamed and
// kept the lineage ID of).
func (r Record) Named(name string) (Record, error) {
	if name == r.Name {
		return r, nil
	}
	if len(name) > maxMetaLen {
		return Record{}, fmt.Errorf("tier: column name too long (%d bytes)", len(name))
	}
	at := len(colMagic) + 1 + 2 + len(r.ID) // the name field
	w := rec.Frame(colMagic, len(r.b)-len(colMagic)-rec.SealLen-len(r.Name)+len(name))
	w.Raw(r.b[len(colMagic):at])
	w.Str16(name)
	w.Raw(r.b[at+2+len(r.Name) : len(r.b)-rec.SealLen])
	b, err := w.Seal()
	if err != nil {
		return Record{}, err
	}
	r.Name, r.b = name, b
	return r, nil
}

// Distinct returns the record of each distinct column a manifest names, in
// order of first mention and under the name the manifest first gives it:
// the columns a download of the frame carries. record returns the record
// of a lineage ID; Distinct returns its first error.
func Distinct(man Manifest, record func(colID string) (Record, error)) ([]Record, error) {
	out := make([]Record, 0, len(man.ColIDs))
	seen := make(map[string]bool, len(man.ColIDs))
	for i, id := range man.ColIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		r, err := record(id)
		if err == nil {
			r, err = r.Named(man.Names[i])
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
