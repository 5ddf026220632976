package data

import (
	"fmt"
	"math"
	"sort"
)

// SortBy returns the rows ordered by the named column (ascending, or
// descending when desc). NaNs sort last either way. All columns are
// re-materialized with IDs minted from opHash and the sort key, unless the
// rows were in order already and pass through (Frame.Gather).
func (f *Frame) SortBy(col string, desc bool, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: sort: no column %q", col)
	}
	idx := make([]int, f.NumRows())
	for i := range idx {
		idx[i] = i
	}
	var less func(a, b int) bool
	switch {
	case c.IsDict():
		// Code order is string order, so the comparator stays in 4-byte
		// integers.
		less = func(a, b int) bool {
			if desc {
				return c.Codes[a] > c.Codes[b]
			}
			return c.Codes[a] < c.Codes[b]
		}
	case c.Type == String:
		less = func(a, b int) bool {
			sa, sb := c.StringAt(a), c.StringAt(b)
			if desc {
				return sa > sb
			}
			return sa < sb
		}
	default:
		less = func(a, b int) bool {
			va, vb := c.Float(a), c.Float(b)
			switch {
			case math.IsNaN(va):
				return false
			case math.IsNaN(vb):
				return true
			case desc:
				return va > vb
			default:
				return va < vb
			}
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return f.Gather(idx, opHash, c), nil
}

// Distinct returns the first row of every distinct value combination of
// the named columns (all columns when empty), preserving first-seen order,
// with IDs minted from opHash and those columns (Frame.Gather).
func (f *Frame) Distinct(opHash string, cols ...string) (*Frame, error) {
	use := f.cols
	if len(cols) > 0 {
		use = make([]*Column, 0, len(cols))
		for _, name := range cols {
			c := f.Column(name)
			if c == nil {
				return nil, fmt.Errorf("data: distinct: no column %q", name)
			}
			use = append(use, c)
		}
	}
	// A row's ID numbers its combination of key slots in order of first
	// appearance, one column at a time; the rows kept are each ID's first.
	ids := make([]int32, f.NumRows())
	var first []int32
	for _, c := range use {
		slots := keySlots(c).slots
		pairs := make([]uint64, len(ids))
		for i, id := range ids {
			pairs[i] = uint64(id)<<32 | uint64(slots[i])
		}
		ids, first, _ = hashSlots(pairs, func(p uint64) uint64 { return p })
	}
	idx := make([]int, len(first))
	for k, r := range first {
		idx[k] = int(r)
	}
	return f.Gather(idx, opHash, use...), nil
}

// AppendRows stacks other's rows under f's (pandas concat axis=0). Both
// frames must have identical column names in the same order; dtypes are
// reconciled through float64 when they differ. Every output column gets an
// ID minted from opHash and both input columns.
func (f *Frame) AppendRows(other *Frame, opHash string) (*Frame, error) {
	if f.NumCols() != other.NumCols() {
		return nil, fmt.Errorf("data: append: column count %d != %d", f.NumCols(), other.NumCols())
	}
	out := &Frame{byName: make(map[string]int, f.NumCols())}
	for j, c := range f.cols {
		oc := other.cols[j]
		if c.Name != oc.Name {
			return nil, fmt.Errorf("data: append: column %d is %q vs %q", j, c.Name, oc.Name)
		}
		id := DeriveID(opHash, c.ID, oc.ID)
		var nc *Column
		switch {
		case c.Type == oc.Type && c.Type == String:
			vals := make([]string, 0, c.Len()+oc.Len())
			vals = append(vals, c.StringValues()...)
			vals = append(vals, oc.StringValues()...)
			nc = dictEncodeIfCompact(&Column{ID: id, Name: c.Name, Type: String, Strings: vals})
		case c.Type == oc.Type && c.Type == Int64:
			vals := make([]int64, 0, c.Len()+oc.Len())
			vals = append(vals, c.Ints...)
			vals = append(vals, oc.Ints...)
			nc = &Column{ID: id, Name: c.Name, Type: Int64, Ints: vals}
		case c.Type.IsNumeric() && oc.Type.IsNumeric():
			vals := make([]float64, 0, c.Len()+oc.Len())
			for i := 0; i < c.Len(); i++ {
				vals = append(vals, c.Float(i))
			}
			for i := 0; i < oc.Len(); i++ {
				vals = append(vals, oc.Float(i))
			}
			nc = &Column{ID: id, Name: c.Name, Type: Float64, Floats: vals}
		default:
			return nil, fmt.Errorf("data: append: column %q mixes %s and %s", c.Name, c.Type, oc.Type)
		}
		if err := out.add(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Bin replaces the named float column with its quantile-bin index in
// [0, bins): equal-frequency discretization. Only that column's ID changes.
func (f *Frame) Bin(col string, bins int, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: bin: no column %q", col)
	}
	if bins < 2 {
		return nil, fmt.Errorf("data: bin: need >= 2 bins, got %d", bins)
	}
	vals := make([]float64, 0, c.Len())
	for i := 0; i < c.Len(); i++ {
		if !c.IsMissing(i) {
			vals = append(vals, c.Float(i))
		}
	}
	sort.Float64s(vals)
	edges := make([]float64, 0, bins-1)
	for k := 1; k < bins; k++ {
		e := vals[k*len(vals)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	outVals := make([]float64, c.Len())
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			outVals[i] = math.NaN()
			continue
		}
		v := c.Float(i)
		b := sort.SearchFloat64s(edges, v)
		outVals[i] = float64(b)
	}
	nc := &Column{ID: DeriveID(opHash, c.ID), Name: c.Name, Type: Float64, Floats: outVals}
	return f.WithColumn(nc)
}

// RollingMean appends column out holding the trailing window mean of col
// (window w, partial windows averaged over the available prefix). Row
// order is meaningful, as in time-indexed frames. windowHash must identify
// w: the new column's ID derives from it and col's ID, never from out.
func (f *Frame) RollingMean(col, out string, w int, windowHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: rolling: no column %q", col)
	}
	if w < 1 {
		return nil, fmt.Errorf("data: rolling: window %d < 1", w)
	}
	n := c.Len()
	vals := make([]float64, n)
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		if !c.IsMissing(i) {
			sum += c.Float(i)
			cnt++
		}
		if i >= w {
			if !c.IsMissing(i - w) {
				sum -= c.Float(i - w)
				cnt--
			}
		}
		if cnt > 0 {
			vals[i] = sum / float64(cnt)
		} else {
			vals[i] = math.NaN()
		}
	}
	nc := &Column{ID: DeriveID(windowHash, c.ID), Name: out, Type: Float64, Floats: vals}
	return f.WithColumn(nc)
}
