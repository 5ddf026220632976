package data

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/parallel"
)

// Dense-ID group-by engine.
//
// A group-by is three passes over int32 arrays; no hash table is built per
// chunk, no group is a heap object and no key is rendered to be sorted:
//
//  1. assign IDs: each row gets its key slot (keySlots, key.go, the engine
//     the join and Distinct share) — NaNs collapse into one group, ±0 stay
//     apart;
//  2. rank: the present slots are ordered as their rendered keys sort, and
//     every row's slot becomes its group's rank, which is its output row —
//     Int64 keys compare their decimal renderings arithmetically, a sorted
//     dictionary's codes are already in order, "false" < "true", and only
//     Float64 keys render one string per group;
//  3. aggregate: a stable counting sort lists each group's rows in row
//     order, and groups fold on the pool in fixed ranges of ranks. A group
//     sums its values in row order within each 2048-row chunk (rowGrain) and
//     adds those chunk partials in chunk order, so every sum has the
//     floating-point tree of a chunk-parallel scan, at any pool width.

// groupGrain is how many groups one pool task folds.
const groupGrain = 256

// gbColStats is the aggregate state of one (group, column) pair.
// Sum/count/mean/min/max all derive from it: mean is sum/n.
type gbColStats struct {
	n, sum, mn, mx float64
	// part is the sum of the cells of chunk, the rowGrain-row chunk of the
	// latest row observed; sum holds the earlier chunks' partials.
	part  float64
	chunk int32
}

func newColStats() gbColStats {
	return gbColStats{mn: math.Inf(1), mx: math.Inf(-1), chunk: -1}
}

// observe takes in v, the non-missing cell of row r; rows come in ascending
// order. Cells add in row order within a chunk, and chunk partials add in
// chunk order.
func (s *gbColStats) observe(r int32, v float64) {
	if c := r / rowGrain; c != s.chunk {
		s.sum += s.part
		s.part, s.chunk = 0, c
	}
	s.part += v
	s.n++
	if v < s.mn {
		s.mn = v
	}
	if v > s.mx {
		s.mx = v
	}
}

func (s gbColStats) value(kind AggKind, rows int) float64 {
	switch kind {
	case AggCount:
		return float64(rows)
	case AggSum:
		return s.sum + s.part
	case AggMean:
		if s.n == 0 {
			return math.NaN()
		}
		return (s.sum + s.part) / s.n
	case AggMin:
		if s.n == 0 {
			return math.NaN()
		}
		return s.mn
	case AggMax:
		if s.n == 0 {
			return math.NaN()
		}
		return s.mx
	default:
		return math.NaN()
	}
}

// groups lists a key column's rows by slot: the rows of slot g, in row
// order, are rows[start[g]:start[g+1]]. A group-by's slots are its groups'
// ranks, in the order of their rendered keys; a join's are key slots.
type groups struct {
	start []int32
	rows  []int32
}

func (g groups) len() int { return len(g.start) - 1 }

// firstRows returns each group's first row, the row its key output copies.
func (g groups) firstRows() []int {
	first := make([]int, g.len())
	for i := range first {
		first[i] = int(g.rows[g.start[i]])
	}
	return first
}

// listRows lists the rows of each slot in [0, domain) by a stable counting
// sort.
func listRows(slots []int32, domain int) groups {
	start := make([]int32, domain+1)
	for _, s := range slots {
		start[s+1]++
	}
	for g := 0; g < domain; g++ {
		start[g+1] += start[g]
	}
	next := slices.Clone(start[:domain])
	rows := make([]int32, len(slots))
	for i, s := range slots {
		rows[next[s]] = int32(i)
		next[s]++
	}
	return groups{start: start, rows: rows}
}

// rankRows returns each row's group rank and the number of groups: the key
// slots, ranked in the order of their rendered keys ("false" < "true"
// already).
func rankRows(kc *Column) ([]int32, int) {
	ks := keySlots(kc)
	return ks.slots, rankSlots(ks.slots, ks.domain, func(present []int32) {
		switch {
		case kc.IsDict():
			// Code order is string order: the slots are in key order already.
		case kc.Type == Int64 && ks.index == nil:
			sortDecimal(present, func(s int32) int64 { return ks.lo + int64(s) })
		case kc.Type == Int64:
			sortDecimal(present, func(s int32) int64 { return kc.Ints[ks.first[s]] })
		case kc.Type == Float64:
			keys := make([]string, ks.domain)
			parallel.For(ks.domain, groupGrain, func(lo, hi int) {
				for s := lo; s < hi; s++ {
					keys[s] = kc.StringAt(int(ks.first[s]))
				}
			})
			slices.SortFunc(present, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
		case kc.Type == String:
			slices.SortFunc(present, func(a, b int32) int {
				return strings.Compare(kc.Strings[ks.first[a]], kc.Strings[ks.first[b]])
			})
		}
	})
}

// rankSlots turns each row's slot in [0, domain) into its group's rank, in
// place, and returns the number of groups. order sorts the present slots,
// given in ascending slot order, into the order of their rendered keys.
func rankSlots(slots []int32, domain int, order func(present []int32)) int {
	rank := make([]int32, domain)
	for _, s := range slots {
		rank[s] = 1
	}
	present := make([]int32, 0, min(domain, len(slots)))
	for s, seen := range rank {
		if seen != 0 {
			present = append(present, int32(s))
		}
	}
	order(present)
	for r, s := range present {
		rank[s] = int32(r)
	}
	parallel.For(len(slots), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			slots[i] = rank[slots[i]]
		}
	})
	return len(present)
}

// pow10 holds 10^0 … 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// decimalKey orders an int64 as strconv.FormatInt renders it, without
// rendering: '-' sorts before every digit, so negatives come first; within
// a sign, magnitudes compare digit by digit, which is comparing them scaled
// to 19 digits; and of two renderings one of which is a prefix of the
// other ("1", "10"), the shorter sorts first.
type decimalKey struct {
	nonneg bool
	digits uint8
	scaled uint64
	slot   int32
}

func newDecimalKey(v int64, slot int32) decimalKey {
	m := uint64(v)
	if v < 0 {
		m = -m // MinInt64's magnitude, 2^63, fits too
	}
	d := 1
	for d < 19 && m >= pow10[d] {
		d++
	}
	return decimalKey{nonneg: v >= 0, digits: uint8(d), scaled: m * pow10[19-d], slot: slot}
}

func compareDecimal(a, b decimalKey) int {
	if a.nonneg != b.nonneg {
		if a.nonneg {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(a.scaled, b.scaled), cmp.Compare(a.digits, b.digits))
}

// sortDecimal sorts slots by the decimal rendering of their values. It is
// a natural merge sort: slots in ascending value order — how the
// direct-address table hands them over — fall into one run per sign and
// digit count (a negative run descends, and is reversed), so the sort is a
// few linear merges instead of a comparison sort.
func sortDecimal(slots []int32, value func(int32) int64) {
	keys := make([]decimalKey, len(slots))
	for i, s := range slots {
		keys[i] = newDecimalKey(value(s), s)
	}
	bounds := []int{} // each run's first index, then len(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		if hi < len(keys) && compareDecimal(keys[hi], keys[lo]) < 0 {
			for hi < len(keys) && compareDecimal(keys[hi], keys[hi-1]) < 0 {
				hi++
			}
			slices.Reverse(keys[lo:hi])
		} else {
			for hi < len(keys) && compareDecimal(keys[hi], keys[hi-1]) > 0 {
				hi++
			}
		}
		bounds = append(bounds, lo)
		lo = hi
	}
	bounds = append(bounds, len(keys))
	buf := make([]decimalKey, len(keys))
	for runs := len(bounds) - 1; runs > 1; runs = len(bounds) - 1 {
		merged := bounds[:0] // run i+1's start is read before merged overwrites it
		for i := 0; i < runs; i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[min(i+2, runs)]
			mergeDecimal(buf[lo:hi], keys[lo:mid], keys[mid:hi])
			merged = append(merged, lo)
		}
		bounds = append(merged, len(keys))
		keys, buf = buf, keys
	}
	for i, k := range keys {
		slots[i] = k.slot
	}
}

// mergeDecimal merges the sorted runs a and b into dst.
func mergeDecimal(dst, a, b []decimalKey) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if compareDecimal(b[0], a[0]) < 0 {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	copy(dst[copy(dst[k:], a)+k:], b)
}

// aggregate folds every group's rows of each column in cols and returns one
// output per aggregate: out[a][g] is aggs[a] of group g over cols[slot[a]].
func (g groups) aggregate(cols []*Column, slot []int, aggs []Agg) [][]float64 {
	out := make([][]float64, len(aggs))
	for a := range out {
		out[a] = make([]float64, g.len())
	}
	parallel.For(g.len(), groupGrain, func(lo, hi int) {
		stats := make([]gbColStats, len(cols))
		for gi := lo; gi < hi; gi++ {
			rows := g.rows[g.start[gi]:g.start[gi+1]]
			for ci, c := range cols {
				stats[ci] = fold(c, rows)
			}
			for a, agg := range aggs {
				out[a][gi] = stats[slot[a]].value(agg.Kind, len(rows))
			}
		}
	})
	return out
}

// fold aggregates the cells of c at rows, which ascend.
func fold(c *Column, rows []int32) gbColStats {
	switch c.Type {
	case Float64:
		return foldValues(c.Floats, rows)
	case Int64:
		return foldValues(c.Ints, rows)
	}
	s := newColStats()
	for _, r := range rows {
		if !c.IsMissing(int(r)) {
			s.observe(r, c.Float(int(r)))
		}
	}
	return s
}

// foldValues is fold for the columns whose missing cells are NaN: an
// int64 is never missing.
func foldValues[T float64 | int64](vals []T, rows []int32) gbColStats {
	s := newColStats()
	for _, r := range rows {
		if v := float64(vals[r]); v == v {
			s.observe(r, v)
		}
	}
	return s
}
