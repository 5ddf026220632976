package data

import (
	"fmt"
	"math"
	"strconv"
)

// Column is a single named, typed vector of values plus its lineage ID.
//
// Exactly one of the value slices is non-nil, selected by Type. Columns are
// treated as immutable once attached to a Frame: operations that change
// values allocate a new Column with a freshly derived ID, while operations
// that leave a column's values as they were — carrying it along, or a row
// selection that keeps every row in order — share the pointer (and
// therefore the underlying array and the ID).
type Column struct {
	// ID is the lineage identifier (DeriveID, SourceID): a hash of the
	// operation and every input ID the values depend on. Equal IDs
	// imply equal values, and an operation that leaves a column's values
	// unchanged passes the column on with its ID. Nothing may rely on the
	// reverse: columns with different IDs can hold equal values. (The
	// New*Column constructors derive an ID from the name alone, which
	// promises nothing until the caller sets a lineage ID.)
	ID   string
	Name string
	Type DType

	Floats  []float64
	Ints    []int64
	Strings []string
	Bools   []bool

	// Dict and Codes are the dictionary-encoded representation of a
	// String column (see dict.go): when set (and Strings is nil), the cell
	// at row i is Dict[Codes[i]]. The entries strictly ascend.
	Dict  []string
	Codes []uint32

	// derived memoises what is computed from the values: the quantile view
	// (quantile.go) and the size of a string column. It is not content:
	// unexported, so no codec carries it.
	derived *columnMemo
}

// NewFloatColumn builds a Float64 column with a source lineage ID derived
// from name alone; callers that need operation lineage should set ID
// explicitly or use DeriveID.
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{ID: SourceID("", name), Name: name, Type: Float64, Floats: vals}
}

// NewIntColumn builds an Int64 column.
func NewIntColumn(name string, vals []int64) *Column {
	return &Column{ID: SourceID("", name), Name: name, Type: Int64, Ints: vals}
}

// NewStringColumn builds a String column.
func NewStringColumn(name string, vals []string) *Column {
	return &Column{ID: SourceID("", name), Name: name, Type: String, Strings: vals}
}

// NewBoolColumn builds a Bool column.
func NewBoolColumn(name string, vals []bool) *Column {
	return &Column{ID: SourceID("", name), Name: name, Type: Bool, Bools: vals}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float64:
		return len(c.Floats)
	case Int64:
		return len(c.Ints)
	case String:
		if c.IsDict() {
			return len(c.Codes)
		}
		return len(c.Strings)
	case Bool:
		return len(c.Bools)
	default:
		return 0
	}
}

// SizeBytes returns the storage footprint of the column's content. String
// cells cost their byte length plus a 16-byte header; fixed-width cells cost
// their width. This is the byte count the storage manager and the budget
// accounting use. A string column is walked once and its size remembered,
// beside the quantile view and shared with it by WithID and Rename copies.
func (c *Column) SizeBytes() int64 {
	switch c.Type {
	case Float64:
		return int64(len(c.Floats)) * 8
	case Int64:
		return int64(len(c.Ints)) * 8
	case String:
		m := c.memo()
		m.sizeOnce.Do(func() { m.size = c.stringBytes() })
		return m.size
	case Bool:
		return int64(len(c.Bools))
	default:
		return 0
	}
}

// stringBytes walks a string column for SizeBytes.
func (c *Column) stringBytes() int64 {
	var n int64
	if c.IsDict() {
		for _, s := range c.Dict {
			n += int64(len(s)) + 16
		}
		return n + int64(len(c.Codes))*4
	}
	for _, s := range c.Strings {
		n += int64(len(s)) + 16
	}
	return n
}

// Float returns the value at row i converted to float64. Strings yield NaN;
// missing floats are NaN already.
func (c *Column) Float(i int) float64 {
	switch c.Type {
	case Float64:
		return c.Floats[i]
	case Int64:
		return float64(c.Ints[i])
	case Bool:
		if c.Bools[i] {
			return 1
		}
		return 0
	default:
		return math.NaN()
	}
}

// StringAt returns the value at row i rendered as a string. String and
// Bool cells return shared storage without allocating; numeric cells
// format through strconv (identical output to fmt's %g / %d verbs).
func (c *Column) StringAt(i int) string {
	switch c.Type {
	case Float64:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(c.Ints[i], 10)
	case String:
		if c.IsDict() {
			return c.Dict[c.Codes[i]]
		}
		return c.Strings[i]
	case Bool:
		if c.Bools[i] {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// IsMissing reports whether the value at row i encodes a missing value
// (NaN for floats, empty string for strings). Ints and bools are never
// missing.
func (c *Column) IsMissing(i int) bool {
	switch c.Type {
	case Float64:
		return math.IsNaN(c.Floats[i])
	case String:
		if c.IsDict() {
			return c.Dict[c.Codes[i]] == ""
		}
		return c.Strings[i] == ""
	default:
		return false
	}
}

// Gather returns the rows of c selected by idx, in order, as a new column
// carrying the provided lineage ID; a negative index yields a missing cell.
// When idx selects every row in order it returns c itself, with its values
// and its ID: the selection changed nothing.
func (c *Column) Gather(idx []int, id string) *Column {
	if selectsAll(idx, c.Len()) {
		return c
	}
	return c.gather(idx, id)
}

// selectsAll reports whether idx is 0, 1, …, n−1: a row selection that keeps
// every one of n rows in order. It is one scan of idx, far cheaper than the
// copy it saves.
func selectsAll(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for j, i := range idx {
		if i != j {
			return false
		}
	}
	return true
}

// gather is Gather without the identity check, for callers that made it
// once for many columns.
func (c *Column) gather(idx []int, id string) *Column {
	out := &Column{ID: id, Name: c.Name, Type: c.Type}
	switch c.Type {
	case Float64:
		out.Floats = make([]float64, len(idx))
		for j, i := range idx {
			if i < 0 {
				out.Floats[j] = math.NaN()
			} else {
				out.Floats[j] = c.Floats[i]
			}
		}
	case Int64:
		out.Ints = make([]int64, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.Ints[j] = c.Ints[i]
			}
		}
	case String:
		if c.IsDict() {
			return c.dictGather(idx, id)
		}
		out.Strings = make([]string, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.Strings[j] = c.Strings[i]
			}
		}
	case Bool:
		out.Bools = make([]bool, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.Bools[j] = c.Bools[i]
			}
		}
	}
	return out
}

// WithID returns a shallow copy of c carrying the given lineage ID. The copy
// shares c's values and with them its quantile view, built or not.
func (c *Column) WithID(id string) *Column {
	c.memo() // installed before the copy reads it, so both point at one memo
	out := *c
	out.ID = id
	return &out
}

// Validate checks the rules a column's representation must keep: the type is
// known, no representation other than the one Type selects is populated, the
// dictionary's entries strictly ascend (dict.go), and every dictionary code
// indexes the dictionary. No program calls it: the tier's decoder enforces
// these rules itself on every column that arrives from outside the process,
// and tier.FuzzValidateColumn uses Validate as the oracle of what the
// decoder accepts.
// Columns built by this package always pass; so does an empty column, which
// decodes with every slice nil.
func (c *Column) Validate() error {
	populated := [...]bool{
		Float64: c.Floats != nil,
		Int64:   c.Ints != nil,
		String:  c.Strings != nil || c.Dict != nil || c.Codes != nil,
		Bool:    c.Bools != nil,
	}
	if int(c.Type) >= len(populated) {
		return fmt.Errorf("data: column %q has unknown type %d", c.Name, uint8(c.Type))
	}
	for t, set := range populated {
		if set && DType(t) != c.Type {
			return fmt.Errorf("data: column %q of type %s carries %s values", c.Name, c.Type, DType(t))
		}
	}
	if c.Strings != nil && (c.Dict != nil || c.Codes != nil) {
		return fmt.Errorf("data: column %q is both plain and dictionary-encoded", c.Name)
	}
	for i := 1; i < len(c.Dict); i++ {
		if c.Dict[i] <= c.Dict[i-1] {
			return fmt.Errorf("data: column %q: dictionary entry %q does not sort after %q", c.Name, c.Dict[i], c.Dict[i-1])
		}
	}
	for _, code := range c.Codes {
		if int(code) >= len(c.Dict) {
			return fmt.Errorf("data: column %q: code %d outside %d-entry dictionary", c.Name, code, len(c.Dict))
		}
	}
	return nil
}
