package tier

import (
	"bytes"
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

// ValidateColumn makes every check DecodeColumn makes of a column record —
// checksum, structure, canonical mode, dictionary rules — and builds no
// column: values are read into pooled scratch and dropped. The record is
// returned as b itself. A version-1 record is refused, as DecodeColumn
// refuses it. The Record's ID and name are fresh strings when known is nil;
// otherwise they are known's strings, and a record whose ID and name known
// does not hold is refused.
func ValidateColumn(b []byte, known Known) (Record, error) {
	_, body, err := rec.Open(b, colMagic)
	if err != nil {
		return Record{}, err
	}
	r := rec.NewReader(body)
	info, isDict := readHeader(&r, known)
	if r.Err() == nil {
		info.Size = skimPayload(&r, info, isDict)
	}
	if err := r.Done(); err != nil {
		return Record{}, err
	}
	return Record{info, b}, nil
}

// skimPayload checks a version-2 payload as decodePayload reads it, and
// returns the size of the column it holds.
func skimPayload(r *rec.Reader, info ColumnInfo, isDict bool) int64 {
	rows := info.Rows
	if rows > r.Left() {
		r.Fail("row count %d exceeds payload", rows)
		return 0
	}
	if isDict {
		k := r.Count(1)
		size := skimDict(r, k)
		if r.Err() != nil {
			return 0
		}
		readCodes(r, rows, k, false)
		return size + 4*int64(rows)
	}
	switch info.Type {
	case data.Float64:
		s := scratchPool.Get().(*scratch)
		readFloatPayload(r, s.floats(rows))
		scratchPool.Put(s)
		return 8 * int64(rows)
	case data.Int64:
		s := scratchPool.Get().(*scratch)
		readIntPayload(r, s.ints(rows))
		scratchPool.Put(s)
		return 8 * int64(rows)
	case data.String:
		var size int64
		for i := 0; i < rows; i++ {
			size += int64(len(r.StrBytes())) + 16
		}
		return size
	case data.Bool:
		readBoolPayload(r, rows, false)
		return int64(rows)
	}
	r.Fail("unknown dtype %d", info.Type)
	return 0
}

// skimDict reads the k entries of a string dictionary without copying them,
// fails r at a repeated one as data.RepeatedEntry finds it, and returns what
// they add to the column's size. A sorted dictionary, which every dictionary
// this repository builds is, is checked entry against entry; any other
// takes a set.
func skimDict(r *rec.Reader, k int) int64 {
	from := *r
	var size int64
	var prev, dup []byte
	sorted, found := true, false
	for i := 0; i < k; i++ {
		s := r.StrBytes()
		size += int64(len(s)) + 16
		if i > 0 && sorted {
			switch c := bytes.Compare(s, prev); {
			case c < 0:
				sorted = false
			case c == 0 && !found:
				dup, found = s, true
			}
		}
		prev = s
	}
	if r.Err() != nil {
		return 0
	}
	if !sorted {
		found = false
		seen := make(map[string]struct{}, k)
		for i := 0; i < k && !found; i++ {
			s := from.StrBytes()
			if _, found = seen[string(s)]; found {
				dup = s
			}
			seen[string(s)] = struct{}{}
		}
	}
	if found {
		r.Fail("dictionary entry %q repeats", dup)
		return 0
	}
	return size
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
