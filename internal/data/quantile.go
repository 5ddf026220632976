package data

import (
	"sort"
	"sync"
)

// MaxBins is the resolution of a column's quantile view. 32 quantile bins
// match LightGBM-style histogram engines closely enough for these data sizes.
const MaxBins = 32

// quantileSample bounds the rows the edge finder sorts.
const quantileSample = 2048

// Quantiles is the binned view of a numeric column that the tree learners
// train on: ascending inclusive upper bin edges and the bin of every row. A
// row falls in the first bin whose edge is >= its value and in bin
// len(Edges) when it exceeds every edge, so there are at most MaxBins bins
// and, for every bin b < len(Edges), Bins[i] <= b exactly when the value of
// row i is <= Edges[b]. A missing value counts as 0, as in NumericMatrix.
// Both slices are shared by every caller and must not be written.
type Quantiles struct {
	Edges []float64
	Bins  []uint8
}

// columnMemo holds what has been computed from a column's values once it
// has been asked for: the quantile view and the size of a string column.
type columnMemo struct {
	once sync.Once
	view *Quantiles

	sizeOnce sync.Once
	size     int64
}

// memoInstall orders the first assignment of a Column's memo pointer against
// the struct copies of WithID and Rename. It is never held while a view is
// built.
var memoInstall sync.Mutex

func (c *Column) memo() *columnMemo {
	memoInstall.Lock()
	defer memoInstall.Unlock()
	if c.derived == nil {
		c.derived = new(columnMemo)
	}
	return c.derived
}

// Quantiles returns the column's quantile view over all of its rows, building
// it on first use. The view belongs to the column object and to the shallow
// copies WithID and Rename make of it, which share its values: it is built
// once however many models train on the column, by whichever caller comes
// first, and is freed with the column. It is not part of the column's
// content: SizeBytes, the codecs and lineage IDs do not see it.
func (c *Column) Quantiles() *Quantiles {
	m := c.memo()
	m.once.Do(func() {
		vals := make([]float64, c.Len())
		c.FillNumeric(vals, 1, nil)
		m.view = quantize(vals)
	})
	return m.view
}

// quantize bins vals.
func quantize(vals []float64) *Quantiles {
	q := &Quantiles{Edges: quantileEdges(vals), Bins: make([]uint8, len(vals))}
	for i, v := range vals {
		q.Bins[i] = binOf(q.Edges, v)
	}
	return q
}

// quantileEdges returns at most MaxBins-1 ascending bin edges for vals.
func quantileEdges(vals []float64) []float64 {
	if distinct, ok := fewDistinct(vals); ok {
		// Every distinct value gets a bin of its own; the largest needs no
		// edge. This also covers the empty column.
		if len(distinct) > 0 {
			distinct = distinct[:len(distinct)-1]
		}
		return distinct
	}
	// Quantile edges are estimated on an evenly strided sample of at most
	// quantileSample rows, which keeps the sort independent of the row count.
	stride := (len(vals) + quantileSample - 1) / quantileSample
	sample := make([]float64, 0, quantileSample)
	for i := 0; i < len(vals); i += stride {
		sample = append(sample, vals[i])
	}
	sort.Float64s(sample)
	var edges []float64
	for k := 1; k < MaxBins; k++ {
		e := sample[k*len(sample)/MaxBins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	return edges
}

// fewDistinct returns the distinct values of vals in ascending order when
// there are at most MaxBins of them — every one-hot, boolean and small-integer
// feature — in one pass and without a sort; it gives up at the first value
// beyond that.
func fewDistinct(vals []float64) ([]float64, bool) {
	distinct := make([]float64, 0, MaxBins)
	for _, v := range vals {
		k := int(binOf(distinct, v))
		if k < len(distinct) && distinct[k] == v {
			continue
		}
		if len(distinct) == MaxBins {
			return nil, false
		}
		distinct = append(distinct, 0)
		copy(distinct[k+1:], distinct[k:])
		distinct[k] = v
	}
	return distinct, true
}

// binOf returns the first bin whose edge is >= v (the last bin when v exceeds
// every edge). edges is ascending and has fewer than 256 entries.
func binOf(edges []float64, v float64) uint8 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// FillNumeric writes the column's value at each of rows (at every row when
// rows is nil) to dst[0], dst[stride], dst[2*stride], ...: the value as
// float64, and 0 for a missing value or a non-numeric cell. It is the cell
// conversion of NumericMatrix with one type switch per column.
func (c *Column) FillNumeric(dst []float64, stride int, rows []int) {
	switch c.Type {
	case Float64:
		if rows == nil {
			for i, v := range c.Floats {
				if v != v { // NaN: missing
					v = 0
				}
				dst[i*stride] = v
			}
			return
		}
		for j, i := range rows {
			v := c.Floats[i]
			if v != v {
				v = 0
			}
			dst[j*stride] = v
		}
	case Int64:
		if rows == nil {
			for i, v := range c.Ints {
				dst[i*stride] = float64(v)
			}
			return
		}
		for j, i := range rows {
			dst[j*stride] = float64(c.Ints[i])
		}
	case Bool:
		if rows == nil {
			for i, v := range c.Bools {
				dst[i*stride] = boolFloat(v)
			}
			return
		}
		for j, i := range rows {
			dst[j*stride] = boolFloat(c.Bools[i])
		}
	default:
		n := len(rows)
		if rows == nil {
			n = c.Len()
		}
		for j := 0; j < n; j++ {
			dst[j*stride] = 0
		}
	}
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
