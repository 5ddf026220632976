package data

import (
	"fmt"
	"sort"
	"strings"
)

// Frame is an ordered collection of equal-length columns — the dataframe
// type of this repository. Frames are cheap to copy: the struct holds only
// a slice of column pointers and a name index. Operations never mutate an
// existing frame; they return new frames that share unaffected columns.
type Frame struct {
	cols   []*Column
	byName map[string]int
}

// NewFrame builds a frame from the given columns. All columns must have the
// same length and distinct names.
func NewFrame(cols ...*Column) (*Frame, error) {
	f := &Frame{byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := f.add(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MustNewFrame is NewFrame that panics on error; intended for tests and
// generators with statically known shapes.
func MustNewFrame(cols ...*Column) *Frame {
	f, err := NewFrame(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Frame) add(c *Column) error {
	if _, dup := f.byName[c.Name]; dup {
		return fmt.Errorf("data: duplicate column %q", c.Name)
	}
	if len(f.cols) > 0 && c.Len() != f.cols[0].Len() {
		return fmt.Errorf("data: column %q has %d rows, frame has %d", c.Name, c.Len(), f.cols[0].Len())
	}
	f.byName[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the number of rows.
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Columns returns the frame's columns in order. The slice must not be
// mutated.
func (f *Frame) Columns() []*Column { return f.cols }

// ColumnNames returns the column names in order.
func (f *Frame) ColumnNames() []string {
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.Name
	}
	return names
}

// Column returns the named column, or nil if absent.
func (f *Frame) Column(name string) *Column {
	if i, ok := f.byName[name]; ok {
		return f.cols[i]
	}
	return nil
}

// HasColumn reports whether the named column exists.
func (f *Frame) HasColumn(name string) bool {
	_, ok := f.byName[name]
	return ok
}

// SizeBytes returns the total content size of the frame.
func (f *Frame) SizeBytes() int64 {
	var n int64
	for _, c := range f.cols {
		n += c.SizeBytes()
	}
	return n
}

// ColumnIDs returns the lineage IDs of all columns, in column order. The
// storage manager uses these as content-addressing keys.
func (f *Frame) ColumnIDs() []string { return IDs(f.cols) }

// Select returns a frame with only the named columns, in the given order.
// Selected columns are shared (same IDs, same arrays).
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := &Frame{byName: make(map[string]int, len(names))}
	for _, name := range names {
		c := f.Column(name)
		if c == nil {
			return nil, fmt.Errorf("data: select: no column %q", name)
		}
		if err := out.add(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Drop returns a frame without the named columns. Remaining columns are
// shared.
func (f *Frame) Drop(names ...string) (*Frame, error) {
	dropped := make(map[string]bool, len(names))
	for _, n := range names {
		dropped[n] = true
	}
	out := &Frame{byName: make(map[string]int)}
	for _, c := range f.cols {
		if dropped[c.Name] {
			continue
		}
		if err := out.add(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WithColumn returns a frame with cols added in one pass: a column named as
// one of f's replaces it in place, any other is appended in argument order.
// Two of cols with one name are refused. All other columns are shared.
func (f *Frame) WithColumn(cols ...*Column) (*Frame, error) {
	given := make(map[string]*Column, len(cols))
	for _, c := range cols {
		if _, dup := given[c.Name]; dup {
			return nil, fmt.Errorf("data: column %q given twice", c.Name)
		}
		given[c.Name] = c
	}
	n := len(f.cols) + len(cols)
	out := &Frame{cols: make([]*Column, 0, n), byName: make(map[string]int, n)}
	for _, c := range f.cols {
		if nc, ok := given[c.Name]; ok {
			delete(given, c.Name)
			c = nc
		}
		if err := out.add(c); err != nil {
			return nil, err
		}
	}
	for _, c := range cols {
		if _, ok := given[c.Name]; !ok {
			continue // it replaced one of f's
		}
		if err := out.add(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gather returns a frame containing the rows selected by idx in order, each
// column re-materialized with an ID minted from op, the columns by whose
// values chose idx (none for a seeded sample) and its own ID —
// unless idx keeps every row in order, and then it returns f unchanged.
func (f *Frame) Gather(idx []int, op string, by ...*Column) *Frame {
	if selectsAll(idx, f.NumRows()) {
		return f
	}
	parts := append(IDs(by), "") // the selecting IDs, then each column's own
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	for _, c := range f.cols {
		parts[len(by)] = c.ID
		_ = out.add(c.gather(idx, DeriveID(op, parts...))) // names unique, lengths equal
	}
	return out
}

// String renders a compact, deterministic description of the frame: its
// shape and the sorted column names. Used in logs and error messages, not
// for data display.
func (f *Frame) String() string {
	names := f.ColumnNames()
	sort.Strings(names)
	return fmt.Sprintf("Frame[%dx%d: %s]", f.NumRows(), f.NumCols(), strings.Join(names, ","))
}
