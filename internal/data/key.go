package data

import (
	"math"
	"slices"

	"repro/internal/parallel"
)

// Key slots: the one engine that keys the join, the group-by and Distinct.
//
// keySlots assigns each row of a key column a slot in a dense domain
// [0, domain), so that two rows share a slot exactly when their cells render
// to the same string (StringAt) — the key semantics the kernels always had:
//
//   - a compact Int64 key (a span under denseSpan slots per row): the
//     value's offset from the column's minimum;
//   - a dictionary-encoded String: the code (dictionary entries are unique:
//     Validate and the tier codec refuse a repeated one);
//   - a Bool: 0 or 1;
//   - anything else (a sparse Int64, a Float64, a plain String): the
//     first-appearance ID that one hash map gives the cell's token, which is
//     the value itself, or for a Float64 its bits with every NaN collapsed
//     to one pattern (all NaNs render "NaN"; -0 and 0 render differently,
//     and their bits differ too).
//
// Go's shortest float formatting round-trips, so rendering is injective on
// the remaining values, and slot equality ≡ rendered-string equality.

// denseSpan bounds the direct-address domain of an Int64 key: the key's
// span may be at most this many slots per row.
const denseSpan = 4

// floatToken is a Float64 cell's token: its bits, every NaN payload
// collapsed to one.
func floatToken(v float64) uint64 {
	if v != v {
		v = math.NaN()
	}
	return math.Float64bits(v)
}

// keySpace is a key column's rows assigned to slots.
type keySpace struct {
	col    *Column
	slots  []int32 // each row's slot
	domain int     // every slot lies in [0, domain)
	// lo is a compact Int64 key's minimum: the slot of v is v − lo.
	lo int64
	// first and index are the hash path's: the first row of each slot, and
	// the map from token to slot (map[int64]int32, map[uint64]int32 or
	// map[string]int32). index is nil on every other path.
	first []int32
	index any
}

// keySlots assigns the rows of c to slots.
func keySlots(c *Column) *keySpace {
	ks := &keySpace{col: c}
	switch {
	case c.IsDict():
		ks.slots = mapRows(len(c.Codes), func(i int) int32 { return int32(c.Codes[i]) })
		ks.domain = len(c.Dict)
	case c.Type == Bool:
		ks.slots = mapRows(len(c.Bools), func(i int) int32 { return boolSlot(c.Bools[i]) })
		ks.domain = 2
	case c.Type == Int64:
		lo, span, compact := intSpan(c.Ints)
		if !compact {
			ks.slots, ks.first, ks.index = hashSlots(c.Ints, func(v int64) int64 { return v })
			break
		}
		ks.slots = mapRows(len(c.Ints), func(i int) int32 { return int32(uint64(c.Ints[i]) - uint64(lo)) })
		ks.lo, ks.domain = lo, int(span)+1
	case c.Type == Float64:
		ks.slots, ks.first, ks.index = hashSlots(c.Floats, floatToken)
	default:
		ks.slots, ks.first, ks.index = hashSlots(c.Strings, func(s string) string { return s })
	}
	if ks.index != nil {
		ks.domain = len(ks.first)
	}
	return ks
}

// intSpan returns an Int64 key's minimum and span, and whether the key takes
// the direct-address path: it has rows, and a span under denseSpan per row.
func intSpan(vals []int64) (lo int64, span uint64, compact bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	lo = slices.Min(vals)
	span = uint64(slices.Max(vals)) - uint64(lo)
	return lo, span, span < denseSpan*uint64(len(vals))
}

func boolSlot(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// hashSlots gives each row the first-appearance ID of its token, and
// returns the first row of each ID and the map from token to ID.
func hashSlots[V any, K comparable](vals []V, token func(V) K) (slots, first []int32, ids map[K]int32) {
	ids = make(map[K]int32)
	slots = make([]int32, len(vals))
	for i, v := range vals {
		t := token(v)
		id, ok := ids[t]
		if !ok {
			id = int32(len(first))
			ids[t] = id
			first = append(first, int32(i))
		}
		slots[i] = id
	}
	return slots, first, ids
}

// mapRows returns f of every row in [0, n), chunked on the shared pool.
func mapRows(n int, f func(i int) int32) []int32 {
	out := make([]int32, n)
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(i)
		}
	})
	return out
}

// lookupRows maps each row's key through index, −1 where index lacks it.
func lookupRows[K comparable](index map[K]int32, n int, key func(i int) K) []int32 {
	return mapRows(n, func(i int) int32 {
		if s, ok := index[key(i)]; ok {
			return s
		}
		return -1
	})
}

// probe maps each row of lk into this space: the slot of the key that
// renders as the row's does, or −1 where there is none. Rows of the same
// representation map without rendering — by an offset test, a 0/1, a
// read-only map lookup, or a code remap built once over the dictionaries;
// a key of another type matches through rendered strings. g lists this
// space's rows per slot.
func (ks *keySpace) probe(lk *Column, g groups) []int32 {
	rk, n := ks.col, lk.Len()
	switch {
	case rk.Type == String:
		return probeStrings(lk, ks.stringIndex())
	case lk.Type != rk.Type:
		return probeStrings(lk, g.renderedIndex(rk))
	case rk.Type == Bool:
		return mapRows(n, func(i int) int32 { return boolSlot(lk.Bools[i]) })
	case ks.index == nil: // a compact Int64
		return mapRows(n, func(i int) int32 {
			if s := uint64(lk.Ints[i]) - uint64(ks.lo); s < uint64(ks.domain) {
				return int32(s)
			}
			return -1
		})
	case rk.Type == Int64:
		return lookupRows(ks.index.(map[int64]int32), n, func(i int) int64 { return lk.Ints[i] })
	default:
		return lookupRows(ks.index.(map[uint64]int32), n, func(i int) uint64 { return floatToken(lk.Floats[i]) })
	}
}

// stringIndex maps a String key's values to their slots.
func (ks *keySpace) stringIndex() map[string]int32 {
	if !ks.col.IsDict() {
		return ks.index.(map[string]int32)
	}
	index := make(map[string]int32, len(ks.col.Dict))
	for code, s := range ks.col.Dict {
		index[s] = int32(code)
	}
	return index
}

// renderedIndex maps the rendering of each occupied slot's key to the slot.
func (g groups) renderedIndex(c *Column) map[string]int32 {
	index := make(map[string]int32, g.len())
	for s := range g.len() {
		if g.start[s] < g.start[s+1] {
			index[c.StringAt(int(g.rows[g.start[s]]))] = int32(s)
		}
	}
	return index
}

// probeStrings maps each row of lk through index by its rendering; a
// dictionary key looks each entry up once.
func probeStrings(lk *Column, index map[string]int32) []int32 {
	if !lk.IsDict() {
		return lookupRows(index, lk.Len(), lk.StringAt)
	}
	remap := make([]int32, len(lk.Dict))
	for code, s := range lk.Dict {
		remap[code] = -1
		if slot, ok := index[s]; ok {
			remap[code] = slot
		}
	}
	return mapRows(len(lk.Codes), func(i int) int32 { return remap[lk.Codes[i]] })
}
