package data

import (
	"math"

	"repro/internal/parallel"
)

// Key tokens: the partition-parallel join never hashes rendered strings on
// the hot path, and the group-by hashes only the keys it has no dense ID
// for (groupby.go). Each key cell is reduced to a token — a comparable
// value whose equality matches the equality of the cell's string rendering
// (the semantics the sequential kernels always had):
//
//   - Int64:  the value's two's-complement bits
//   - Bool:   0 or 1
//   - Float64: IEEE-754 bits with every NaN collapsed to one canonical
//     pattern (all NaNs render "NaN", so they must compare equal; -0 and 0
//     render differently, and their bit patterns differ too)
//   - dictionary-encoded String: the dictionary code (joins remap one
//     side's codes into the other's token space first)
//   - plain String: the string itself, as a fallback token type
//
// Rendering is injective on the remaining values (Go's shortest float
// formatting round-trips), so token equality ≡ rendered-string equality.

// canonicalNaN is the single token all NaN payloads collapse to.
var canonicalNaN = math.Float64bits(math.NaN())

// floatToken is a Float64 cell's token: its bits, every NaN collapsed.
func floatToken(v float64) uint64 {
	if v != v {
		return canonicalNaN
	}
	return math.Float64bits(v)
}

// numericTokens renders a numeric column into uint64 tokens, chunked on
// the shared pool. Returns nil for non-numeric columns.
func numericTokens(c *Column) []uint64 {
	n := c.Len()
	toks := make([]uint64, n)
	switch c.Type {
	case Int64:
		parallel.For(n, rowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				toks[i] = uint64(c.Ints[i])
			}
		})
	case Float64:
		parallel.For(n, rowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				toks[i] = floatToken(c.Floats[i])
			}
		})
	case Bool:
		parallel.For(n, rowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if c.Bools[i] {
					toks[i] = 1
				}
			}
		})
	default:
		return nil
	}
	return toks
}

// dictTokens returns the column's codes widened to uint64 tokens.
func dictTokens(c *Column) []uint64 {
	toks := make([]uint64, len(c.Codes))
	parallel.For(len(c.Codes), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			toks[i] = uint64(c.Codes[i])
		}
	})
	return toks
}

// remappedDictTokens maps right's codes into left's token space: a right
// cell whose string appears in left's dictionary gets left's code for it;
// strings unknown to left get tokens >= len(left.Dict), which no left row
// carries, so they can never match. Cost is O(|left.Dict| + |right.Dict|)
// map operations plus one O(rows) array lookup pass — per-row string
// hashing never happens.
func remappedDictTokens(left, right *Column) []uint64 {
	ldex := make(map[string]uint64, len(left.Dict))
	for code, s := range left.Dict {
		ldex[s] = uint64(code)
	}
	nomatch := uint64(len(left.Dict))
	remap := make([]uint64, len(right.Dict))
	for rcode, s := range right.Dict {
		if lcode, ok := ldex[s]; ok {
			remap[rcode] = lcode
		} else {
			remap[rcode] = nomatch + uint64(rcode)
		}
	}
	toks := make([]uint64, len(right.Codes))
	parallel.For(len(right.Codes), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			toks[i] = remap[right.Codes[i]]
		}
	})
	return toks
}

// stringTokens renders every cell to its string form (the fallback token
// type for plain string keys and mixed-type joins). Dictionary columns
// share their dictionary entries, so this pass allocates nothing per row
// for them.
func stringTokens(c *Column) []string { return renderKeys(c) }

// kernelParts is the fixed radix-partition count of the join. It is a
// power of two, chosen independently of the pool width so partition
// assignment — and therefore every downstream data structure — is
// identical at any worker count. 64 partitions keep per-partition hash
// tables cache-sized for the row counts this system handles while leaving
// enough parallel slack for wide pools.
const kernelParts = 64

// mix64 is the splitmix64 finalizer: a full-avalanche mix so that
// sequential integer keys spread over all partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64a hashes a string (FNV-1a, 64-bit). Deterministic across runs so
// partition contents never depend on process state.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// partitionIDs assigns each row's token to one of kernelParts partitions,
// chunked on the shared pool.
func partitionIDs[K comparable](toks []K, hash func(K) uint64) []uint8 {
	parts := make([]uint8, len(toks))
	parallel.For(len(toks), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parts[i] = uint8(hash(toks[i]) & (kernelParts - 1))
		}
	})
	return parts
}

func hashUint64(t uint64) uint64 { return mix64(t) }
func hashString(s string) uint64 { return fnv64a(s) }
