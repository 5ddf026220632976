package data

import (
	"math"
	"math/bits"
	"slices"
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
// row i is <= Edges[b]. A missing value counts as 0, as FillNumeric
// converts it. Both slices are shared by every caller and must not be written.
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
	var e edgeKeys
	e.fill(q.Edges)
	for i, v := range vals {
		q.Bins[i] = e.bin(v)
	}
	return q
}

// quantileEdges returns at most MaxBins-1 ascending bin edges for vals. It
// finds them on the values' order keys, in which −0 and +0 are one value, so
// a zero edge is +0 whichever of the two the column holds.
func quantileEdges(vals []float64) []float64 {
	var keys []uint64
	if distinct, n, ok := fewDistinct(vals); ok {
		// Every distinct value gets a bin of its own; the largest needs no
		// edge. This also covers the empty column.
		keys = distinct[:max(n-1, 0)]
	} else {
		keys = sampleQuantiles(vals)
	}
	edges := make([]float64, len(keys))
	for i, k := range keys {
		edges[i] = fromOrderKey(k)
	}
	return edges
}

// sampleQuantiles returns the distinct keys among the order statistics at
// ranks k·m/MaxBins, k = 1 … MaxBins-1, of an evenly strided sample of m ≤
// quantileSample rows, which keeps the work independent of the row count.
// They are selected, not sorted for: the sample is only partitioned as far
// as those ranks need.
func sampleQuantiles(vals []float64) []uint64 {
	stride := (len(vals) + quantileSample - 1) / quantileSample
	sample := make([]uint64, 0, quantileSample)
	for i := 0; i < len(vals); i += stride {
		sample = append(sample, orderKey(vals[i]))
	}
	var ranks [MaxBins - 1]int
	for k := range ranks {
		ranks[k] = (k + 1) * len(sample) / MaxBins
	}
	selectRanks(sample, 0, len(sample), ranks[:], 2*bits.Len(uint(len(sample))))
	var keys []uint64
	for _, r := range ranks {
		if k := sample[r]; len(keys) == 0 || k > keys[len(keys)-1] {
			keys = append(keys, k)
		}
	}
	return keys
}

// selectRanks reorders a[lo:hi] so that a[r], for each of ranks (ascending,
// in [lo, hi)), holds the key a sorted a[lo:hi] holds there. It partitions
// around a median of three and keeps to the sides that hold a rank; it sorts
// a side outright once the side is short, or once depth partitions have not
// finished the job, which bounds the work on an adversarial order.
func selectRanks(a []uint64, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if hi-lo <= 16 || depth == 0 {
			slices.Sort(a[lo:hi])
			return
		}
		depth--
		p := max(min(a[lo], a[hi-1]), min(max(a[lo], a[hi-1]), a[lo+(hi-lo)/2]))
		m := partition(a, lo, hi, p)
		if m == lo {
			// Nothing is below the pivot: gather its ties at the front,
			// where they are already in order.
			m = partition(a, lo, hi, p+1)
			i, _ := slices.BinarySearch(ranks, m)
			lo, ranks = m, ranks[i:]
			continue
		}
		i, _ := slices.BinarySearch(ranks, m) // ranks[:i] are left of m
		selectRanks(a, lo, m, ranks[:i], depth)
		lo, ranks = m, ranks[i:]
	}
}

// partition moves the keys of a[lo:hi] that are below bound to its front and
// returns where they end. It swaps at every step and adds the comparison's
// borrow to the front's end, so no step branches on the data.
func partition(a []uint64, lo, hi int, bound uint64) int {
	i := lo
	for j := lo; j < hi; j++ {
		k := a[j]
		a[j] = a[i]
		a[i] = k
		_, below := bits.Sub64(k, bound, 0)
		i += int(below)
	}
	return i
}

// fewDistinct returns the order keys of the distinct values of vals, padded
// as edgeKeys are, and their number when there are at most MaxBins of them —
// every one-hot, boolean and small-integer feature — in one pass and without
// a sort; it gives up at the first value beyond that.
func fewDistinct(vals []float64) (keys edgeKeys, n int, ok bool) {
	keys.fill(nil)
	for _, v := range vals {
		k := keys.bin(v)
		if keys[k] == orderKey(v) {
			continue
		}
		// Not seen yet. When MaxBins values are, the search's answer may be
		// short by one, but then there is no room for v anyway.
		if n == MaxBins {
			return keys, 0, false
		}
		copy(keys[k+1:], keys[k:])
		keys[k] = orderKey(v)
		n++
	}
	return keys, n, true
}

// orderKey maps v, which must not be NaN, to an integer in the order of the
// floats: the bits of a non-negative value with the sign bit set, those of a
// negative one all flipped. v+0 turns −0 into +0, so the two zeros share a
// key, as they compare equal. No key is math.MaxUint64.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromOrderKey is the value whose order key is k.
func fromOrderKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// edgeKeys holds at most MaxBins-1 ascending edges as order keys, padded to
// MaxBins entries with math.MaxUint64, which is above every value's key. So
// the last entry is always above v, and a row's bin is found in a fixed five
// steps that compare by subtraction and add the borrow: no step branches on
// the data, which a pass that bins each column once could not predict.
type edgeKeys [MaxBins]uint64

// fill sets e to the keys of edges and pads it.
func (e *edgeKeys) fill(edges []float64) {
	for i := range e {
		e[i] = math.MaxUint64
		if i < len(edges) {
			e[i] = orderKey(edges[i])
		}
	}
}

// bin returns the first bin whose edge is >= v, the number of edges below v:
// the number of edges when v exceeds every one.
func (e *edgeKeys) bin(v float64) uint8 {
	k := orderKey(v)
	_, below := bits.Sub64(e[15], k, 0)
	i := below << 4
	_, below = bits.Sub64(e[(i+7)%MaxBins], k, 0)
	i |= below << 3
	_, below = bits.Sub64(e[(i+3)%MaxBins], k, 0)
	i |= below << 2
	_, below = bits.Sub64(e[(i+1)%MaxBins], k, 0)
	i |= below << 1
	_, below = bits.Sub64(e[i%MaxBins], k, 0)
	return uint8(i | below)
}

// FillNumeric writes the column's value at each of rows (at every row when
// rows is nil) to dst[0], dst[stride], dst[2*stride], ...: the value as
// float64 (a bool as 0 or 1), and 0 for a missing value or a non-numeric
// cell, with one type switch per column. It is the one numeric conversion of
// the model path: every learner and feature transform reads a frame's
// columns through it.
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
