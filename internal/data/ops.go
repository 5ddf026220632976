package data

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

// rowGrain is the chunk size of parallel row scans: large enough that a
// chunk amortizes scheduling, small enough to balance skewed work.
const rowGrain = 2048

// FilterFloat returns the rows of f where pred(column value) is true. Row
// selection affects every column, so all output columns get IDs derived
// from opHash — unless every row is kept, and then f's columns pass through
// (Frame.Gather).
func (f *Frame) FilterFloat(col string, pred func(float64) bool, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: filter: no column %q", col)
	}
	var idx []int
	for i := 0; i < c.Len(); i++ {
		if pred(c.Float(i)) {
			idx = append(idx, i)
		}
	}
	return f.Gather(idx, opHash), nil
}

// FilterString returns the rows of f where pred(string value) is true. On
// dictionary-encoded columns pred runs once per distinct value, not once
// per row.
func (f *Frame) FilterString(col string, pred func(string) bool, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: filter: no column %q", col)
	}
	if c.Type != String {
		return nil, fmt.Errorf("data: filter: column %q is %s, want string", col, c.Type)
	}
	var idx []int
	if c.IsDict() {
		keep := make([]bool, len(c.Dict))
		for code, s := range c.Dict {
			keep[code] = pred(s)
		}
		for i, code := range c.Codes {
			if keep[code] {
				idx = append(idx, i)
			}
		}
		return f.Gather(idx, opHash), nil
	}
	for i, s := range c.Strings {
		if pred(s) {
			idx = append(idx, i)
		}
	}
	return f.Gather(idx, opHash), nil
}

// MapFloat replaces column col with fn applied element-wise (reading the
// column as float64). Only that column's lineage ID changes.
func (f *Frame) MapFloat(col string, fn func(float64) float64, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: map: no column %q", col)
	}
	vals := make([]float64, c.Len())
	for i := range vals {
		vals[i] = fn(c.Float(i))
	}
	nc := &Column{ID: DeriveID(opHash, c.ID), Name: c.Name, Type: Float64, Floats: vals}
	return f.WithColumn(nc)
}

// DeriveFloat appends a new float column named out computed row-wise from
// the named input columns; existing columns are untouched. fnHash must
// identify fn: the new column's ID derives from it and the input IDs in
// order, never from out, so the same combiner on the same inputs under
// another name is the same column.
func (f *Frame) DeriveFloat(out string, inputs []string, fn func([]float64) float64, fnHash string) (*Frame, error) {
	in := make([]*Column, len(inputs))
	lineage := ""
	for i, name := range inputs {
		c := f.Column(name)
		if c == nil {
			return nil, fmt.Errorf("data: derive: no column %q", name)
		}
		in[i] = c
		lineage += c.ID + "\x00"
	}
	rows := f.NumRows()
	vals := make([]float64, rows)
	args := make([]float64, len(in))
	for i := 0; i < rows; i++ {
		for j, c := range in {
			args[j] = c.Float(i)
		}
		vals[i] = fn(args)
	}
	nc := &Column{ID: DeriveID(fnHash, lineage), Name: out, Type: Float64, Floats: vals}
	return f.WithColumn(nc)
}

// FillNA replaces missing values in the named float columns (all float
// columns when names is empty) with the column mean. Only touched columns
// get new IDs.
func (f *Frame) FillNA(opHash string, names ...string) (*Frame, error) {
	target := make(map[string]bool, len(names))
	for _, n := range names {
		target[n] = true
	}
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	for _, c := range f.cols {
		if c.Type != Float64 || (len(names) > 0 && !target[c.Name]) {
			if err := out.add(c); err != nil {
				return nil, err
			}
			continue
		}
		var sum float64
		var n int
		missing := false
		for _, v := range c.Floats {
			if math.IsNaN(v) {
				missing = true
				continue
			}
			sum += v
			n++
		}
		if !missing {
			if err := out.add(c); err != nil {
				return nil, err
			}
			continue
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		vals := make([]float64, len(c.Floats))
		for i, v := range c.Floats {
			if math.IsNaN(v) {
				vals[i] = mean
			} else {
				vals[i] = v
			}
		}
		nc := &Column{ID: DeriveID(opHash, c.ID), Name: c.Name, Type: Float64, Floats: vals}
		if err := out.add(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OneHot expands the named string column into one 0/1 float column per
// distinct value ("name=value"), dropping the original. Categories are
// emitted in sorted order for determinism. Other columns are shared.
func (f *Frame) OneHot(col string, opHash string) (*Frame, error) {
	c := f.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: onehot: no column %q", col)
	}
	if c.Type != String {
		return nil, fmt.Errorf("data: onehot: column %q is %s, want string", col, c.Type)
	}
	var sorted []string
	if c.IsDict() {
		// Categories are the dictionary entries actually present in the
		// code vector (a gathered column can share a wider dictionary than
		// its rows reference), excluding the missing value "".
		used := make([]bool, len(c.Dict))
		for _, code := range c.Codes {
			used[code] = true
		}
		for code, s := range c.Dict {
			if used[code] && s != "" {
				sorted = append(sorted, s)
			}
		}
		if !sort.StringsAreSorted(sorted) {
			sort.Strings(sorted)
		}
	} else {
		cats := make(map[string]bool)
		for _, s := range c.Strings {
			if s != "" {
				cats[s] = true
			}
		}
		sorted = make([]string, 0, len(cats))
		for s := range cats {
			sorted = append(sorted, s)
		}
		sort.Strings(sorted)
	}

	out, err := f.Drop(col)
	if err != nil {
		return nil, err
	}
	// Each category's indicator column is independent: build them on the
	// shared pool, then append sequentially in sorted-category order.
	// Dictionary-encoded columns compare 4-byte codes instead of strings.
	indicators := make([]*Column, len(sorted))
	parallel.For(len(sorted), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			cat := sorted[k]
			vals := make([]float64, c.Len())
			if c.IsDict() {
				match := make([]bool, len(c.Dict))
				for code, s := range c.Dict {
					match[code] = s == cat
				}
				for i, code := range c.Codes {
					if match[code] {
						vals[i] = 1
					}
				}
			} else {
				for i, s := range c.Strings {
					if s == cat {
						vals[i] = 1
					}
				}
			}
			indicators[k] = &Column{
				ID:     DeriveID(opHash+"\x01"+cat, c.ID),
				Name:   col + "=" + cat,
				Type:   Float64,
				Floats: vals,
			}
		}
	})
	for _, nc := range indicators {
		if out, err = out.WithColumn(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// JoinKind selects the join semantics of Join.
type JoinKind uint8

const (
	// Inner keeps only rows with matches on both sides.
	Inner JoinKind = iota
	// Left keeps all left rows, filling unmatched right cells with
	// missing values.
	Left
)

// Join performs a hash join of f (left) with right on the named key column,
// which must exist on both sides. Right-side key columns are dropped from
// the output; name collisions on non-key columns get a "_r" suffix on the
// right (on a copy: the right input keeps its names). A join re-aligns
// rows, so a side's columns are re-materialized with opHash-derived IDs —
// unless the join keeps that side's rows exactly, every row once and in
// order, and then they pass through with their IDs (Column.Gather). A Left
// join whose left rows each match at most one right row keeps its left
// side so: a lookup of per-key aggregates adds columns and copies none.
//
// The kernel (join.go) runs on the key slots the group-by and Distinct use
// (key.go): the right side's rows are listed per slot, and each left row
// maps its key into the right's slots — keys match when their renderings
// (StringAt) do. Output row order is the sequential kernel's: left-row
// order, with each left row's matches in ascending right-row order,
// bit-identical at any pool width.
func (f *Frame) Join(right *Frame, key string, kind JoinKind, opHash string) (*Frame, error) {
	lk := f.Column(key)
	rk := right.Column(key)
	if lk == nil || rk == nil {
		return nil, fmt.Errorf("data: join: key %q missing (left=%v right=%v)", key, lk != nil, rk != nil)
	}
	lidx, ridx := joinRowIndices(lk, rk, kind)
	lsame, rsame := selectsAll(lidx, f.NumRows()), selectsAll(ridx, right.NumRows())
	// Materialize the output columns in parallel (each gather is an
	// independent O(rows) copy), then attach sequentially so collision
	// renaming stays order-dependent and deterministic. A side the join
	// keeps exactly is not gathered: its columns are the output's.
	type gatherJob struct {
		src         *Column
		id          string
		idx         []int
		keep, right bool
	}
	jobs := make([]gatherJob, 0, f.NumCols()+right.NumCols())
	for _, c := range f.cols {
		jobs = append(jobs, gatherJob{c, DeriveID(opHash+"\x01L", c.ID), lidx, lsame, false})
	}
	for _, c := range right.cols {
		if c.Name == key {
			continue
		}
		jobs = append(jobs, gatherJob{c, DeriveID(opHash+"\x01R", c.ID), ridx, rsame, true})
	}
	gathered := make([]*Column, len(jobs))
	parallel.For(len(jobs), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if j := jobs[k]; j.keep {
				gathered[k] = j.src
			} else {
				gathered[k] = j.src.gather(j.idx, j.id)
			}
		}
	})
	out := &Frame{byName: make(map[string]int, len(jobs))}
	for k, nc := range gathered {
		if jobs[k].right && out.HasColumn(nc.Name) {
			// The column may be the right input's own: rename a copy.
			nc = nc.WithID(nc.ID)
			nc.Name += "_r"
		}
		if err := out.add(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ConcatColumns appends the columns of others to f. Row counts must match;
// duplicate names get "_k" suffixes. Columns are shared (pandas concat with
// axis=1 on aligned frames).
func (f *Frame) ConcatColumns(others ...*Frame) (*Frame, error) {
	out := &Frame{byName: make(map[string]int)}
	for _, c := range f.cols {
		if err := out.add(c); err != nil {
			return nil, err
		}
	}
	for k, o := range others {
		if o.NumRows() != f.NumRows() && f.NumCols() > 0 && o.NumCols() > 0 {
			return nil, fmt.Errorf("data: concat: row mismatch %d vs %d", f.NumRows(), o.NumRows())
		}
		for _, c := range o.cols {
			use := c
			if out.HasColumn(c.Name) {
				use = c.WithID(c.ID)
				use.Name = fmt.Sprintf("%s_%d", c.Name, k+1)
			}
			if err := out.add(use); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// AggKind enumerates group-by aggregate functions.
type AggKind uint8

const (
	// AggMean averages non-missing values.
	AggMean AggKind = iota
	// AggSum totals non-missing values.
	AggSum
	// AggMin takes the minimum of non-missing values.
	AggMin
	// AggMax takes the maximum of non-missing values.
	AggMax
	// AggCount counts rows in the group.
	AggCount
)

func (a AggKind) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return fmt.Sprintf("agg(%d)", uint8(a))
	}
}

// Agg names one aggregation: apply Kind to column Col.
type Agg struct {
	Col  string
	Kind AggKind
}

// GroupBy groups f by the key column and computes the requested aggregates.
// The output has one row per distinct key, in the order of the keys'
// renderings (StringAt), with columns key, "col_kind"... An aggregate whose
// output name is the key's or another aggregate's is an error. Aggregation
// produces entirely new data, so the aggregate columns carry opHash-derived
// IDs; so does the key column, unless the keys were already distinct and in
// output order, and then it is the input's key column (Column.Gather).
//
// The kernel is the dense-ID group-by engine (groupby.go): each row's key
// becomes its group's rank, a counting sort lists each group's rows, and
// groups fold on the pool. Every aggregate derives from one (count, sum,
// min, max) state per (group, column).
func (f *Frame) GroupBy(key string, aggs []Agg, opHash string) (*Frame, error) {
	kc := f.Column(key)
	if kc == nil {
		return nil, fmt.Errorf("data: groupby: no column %q", key)
	}
	// Resolve aggregated columns up front, deduping by name so several
	// aggregates over one column share a single fold.
	aggCols := make([]*Column, 0, len(aggs))
	slotOf := make(map[string]int, len(aggs))
	slots := make([]int, len(aggs))
	names := make([]string, len(aggs))
	taken := map[string]bool{key: true}
	for ai, a := range aggs {
		slot, seen := slotOf[a.Col]
		if !seen {
			c := f.Column(a.Col)
			if c == nil {
				return nil, fmt.Errorf("data: groupby: no column %q", a.Col)
			}
			slot = len(aggCols)
			aggCols = append(aggCols, c)
			slotOf[a.Col] = slot
		}
		slots[ai] = slot
		names[ai] = a.Col + "_" + a.Kind.String()
		if taken[names[ai]] {
			return nil, fmt.Errorf("data: groupby: aggregate %s of %q would be named %q, which the key or an earlier aggregate already is", a.Kind, a.Col, names[ai])
		}
		taken[names[ai]] = true
	}

	g := listRows(rankRows(kc))
	vals := g.aggregate(aggCols, slots, aggs)
	cols := make([]*Column, 0, 1+len(aggs))
	cols = append(cols, kc.Gather(g.firstRows(), DeriveID(opHash+"\x01key", kc.ID)))
	for ai, name := range names {
		cols = append(cols, &Column{
			ID:     DeriveID(opHash+"\x01"+name, aggCols[slots[ai]].ID),
			Name:   name,
			Type:   Float64,
			Floats: vals[ai],
		})
	}
	return NewFrame(cols...)
}

// Align removes from both frames every column whose name does not appear in
// the other, returning the two reduced frames (the paper's "alignment
// operation", §7.2). Shared columns are carried through unchanged on both
// sides.
func Align(a, b *Frame) (*Frame, *Frame, error) {
	common := make([]string, 0)
	for _, c := range a.cols {
		if b.HasColumn(c.Name) {
			common = append(common, c.Name)
		}
	}
	ra, err := a.Select(common...)
	if err != nil {
		return nil, nil, err
	}
	rb, err := b.Select(common...)
	if err != nil {
		return nil, nil, err
	}
	return ra, rb, nil
}
