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
func (f *Frame) ColumnIDs() []string {
	ids := make([]string, len(f.cols))
	for i, c := range f.cols {
		ids[i] = c.ID
	}
	return ids
}

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

// WithColumn returns a frame with col appended (or replacing a same-named
// column). All other columns are shared.
func (f *Frame) WithColumn(col *Column) (*Frame, error) {
	out := &Frame{byName: make(map[string]int, len(f.cols)+1)}
	replaced := false
	for _, c := range f.cols {
		use := c
		if c.Name == col.Name {
			use = col
			replaced = true
		}
		if err := out.add(use); err != nil {
			return nil, err
		}
	}
	if !replaced {
		if err := out.add(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gather returns a frame containing the rows selected by idx in order. A
// row selection affects every column, so each is re-materialized with an ID
// derived from opHash — unless idx keeps every row in order, and then every
// column passes through, values and ID unchanged (Column.Gather).
func (f *Frame) Gather(idx []int, opHash string) *Frame {
	same := selectsAll(idx, f.NumRows())
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	for _, c := range f.cols {
		nc := c
		if !same {
			nc = c.gather(idx, DeriveID(opHash, c.ID))
		}
		// add cannot fail: names unique, lengths equal by construction.
		_ = out.add(nc)
	}
	return out
}

// Head returns the first n rows (all rows if n exceeds the row count).
func (f *Frame) Head(n int, opHash string) *Frame {
	if n > f.NumRows() {
		n = f.NumRows()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return f.Gather(idx, opHash)
}

// NumericMatrix converts the named columns (all numeric columns when names is
// empty) to a dense row-major matrix of float64, substituting 0 for missing
// values and non-numeric cells. Names the frame lacks are skipped. It returns
// the matrix and the column names used.
func (f *Frame) NumericMatrix(names ...string) ([][]float64, []string) {
	var used []string
	if len(names) > 0 {
		for _, n := range names {
			if f.HasColumn(n) {
				used = append(used, n)
			}
		}
	} else {
		for _, c := range f.cols {
			if c.Type.IsNumeric() {
				used = append(used, c.Name)
			}
		}
	}
	return f.NumericRows(used, nil), used
}

// NumericRows is NumericMatrix restricted to the given rows, in their order
// (all rows when rows is nil), with exactly one matrix column per name: a
// name the frame lacks yields zeros, which keeps a model's feature
// dimensionality whatever the frame holds (e.g. one-hot categories absent
// from a test split). The matrix is filled column by column, one type switch
// per column.
func (f *Frame) NumericRows(names []string, rows []int) [][]float64 {
	n, d := len(rows), len(names)
	if rows == nil {
		n = f.NumRows()
	}
	m := make([][]float64, n)
	flat := make([]float64, n*d)
	for i := range m {
		m[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	if n == 0 {
		return m
	}
	for j, name := range names {
		if c := f.Column(name); c != nil {
			c.FillNumeric(flat[j:], d, rows)
		}
	}
	return m
}

// String renders a compact, deterministic description of the frame: its
// shape and the sorted column names. Used in logs and error messages, not
// for data display.
func (f *Frame) String() string {
	names := f.ColumnNames()
	sort.Strings(names)
	return fmt.Sprintf("Frame[%dx%d: %s]", f.NumRows(), f.NumCols(), strings.Join(names, ","))
}
