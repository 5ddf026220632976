package data

import (
	"sort"

	"repro/internal/parallel"
)

// Dictionary-encoded string columns.
//
// A String column has two interchangeable representations: plain
// (Strings[i] holds the cell value) and dictionary-encoded (Dict holds the
// distinct values, Codes[i] indexes into it). The encoded form is the one
// the hot kernels want — join, group-by, and one-hot compare 4-byte integer
// codes instead of hashing strings — and it is also the compact form for
// the memory/disk artifact tiers: a million-row column with 50 distinct
// values stores 50 strings plus 4 MB of codes instead of a million string
// headers.
//
// Invariants of columns built by this package: Dict entries are unique and
// sorted ascending (so code order is lexicographic order, which SortBy and
// OneHot exploit), and every code is in [0, len(Dict)). Consumers that rely
// on sortedness re-check it cheaply, because the tier codec deliberately
// accepts any in-bounds dictionary to keep decoding canonical.

// IsDict reports whether the column uses the dictionary-encoded string
// representation.
func (c *Column) IsDict() bool {
	return c.Type == String && c.Strings == nil && (c.Dict != nil || c.Codes != nil)
}

// NewDictColumn builds a dictionary-encoded String column from an explicit
// dictionary and code vector. The caller is responsible for the dictionary
// invariants (unique, sorted, codes in bounds); use DictEncoded to derive
// both from plain values.
func NewDictColumn(name string, dict []string, codes []uint32) *Column {
	return &Column{ID: SourceID("", name), Name: name, Type: String, Dict: dict, Codes: codes}
}

// buildDict returns the sorted distinct values of vals and the code vector
// mapping each row to its dictionary slot. The distinct scan runs chunked
// on the shared pool; code assignment is a read-only map lookup and also
// runs in parallel.
func buildDict(vals []string) (dict []string, codes []uint32) {
	n := len(vals)
	nparts := (n + rowGrain - 1) / rowGrain
	partSets := make([]map[string]struct{}, nparts)
	parallel.For(n, rowGrain, func(lo, hi int) {
		set := make(map[string]struct{})
		for i := lo; i < hi; i++ {
			set[vals[i]] = struct{}{}
		}
		partSets[lo/rowGrain] = set
	})
	merged := make(map[string]uint32)
	for _, set := range partSets {
		for s := range set {
			merged[s] = 0
		}
	}
	dict = make([]string, 0, len(merged))
	for s := range merged {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		merged[s] = uint32(i)
	}
	codes = make([]uint32, n)
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = merged[vals[i]]
		}
	})
	return dict, codes
}

// DictEncoded returns the dictionary-encoded form of a plain String column,
// sharing the receiver's ID (encoding changes the representation, not the
// logical content or lineage). Non-string and already-encoded columns are
// returned unchanged.
func (c *Column) DictEncoded() *Column {
	if c.Type != String || c.IsDict() {
		return c
	}
	dict, codes := buildDict(c.Strings)
	return &Column{ID: c.ID, Name: c.Name, Type: String, Dict: dict, Codes: codes}
}

// dictEncodeIfCompact dictionary-encodes a plain string column when the
// encoded form is clearly smaller (few distinct values relative to rows);
// high-cardinality columns stay plain, where codes plus dictionary would
// cost more than the strings themselves.
func dictEncodeIfCompact(c *Column) *Column {
	if c.Type != String || c.IsDict() || len(c.Strings) == 0 {
		return c
	}
	dc := c.DictEncoded()
	if 2*len(dc.Dict) <= len(c.Strings) {
		return dc
	}
	return c
}

// StringValues returns the column's string cells as a plain []string,
// materializing dictionary-encoded columns. Plain columns return their
// backing slice, which must not be mutated.
func (c *Column) StringValues() []string {
	if c.Type != String {
		return nil
	}
	if !c.IsDict() {
		return c.Strings
	}
	out := make([]string, len(c.Codes))
	parallel.For(len(c.Codes), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.Dict[c.Codes[i]]
		}
	})
	return out
}

// dictIsSorted reports whether the dictionary is sorted ascending — true
// for every dictionary this package builds, re-checked where code-order
// shortcuts depend on it because decoded columns may carry any in-bounds
// dictionary.
func (c *Column) dictIsSorted() bool {
	return sort.StringsAreSorted(c.Dict)
}

// dictGather gathers a dictionary-encoded column by row indices. The
// dictionary is shared with the receiver unless idx contains negative
// entries (left-join missing fills) and the dictionary lacks "": then a
// new dictionary with "" prepended is built and codes shift by one,
// preserving sortedness ("" is the smallest string).
func (c *Column) dictGather(idx []int, id string) *Column {
	out := &Column{ID: id, Name: c.Name, Type: String}
	hasNeg := false
	for _, i := range idx {
		if i < 0 {
			hasNeg = true
			break
		}
	}
	dict := c.Dict
	var missCode, shift uint32
	if hasNeg {
		found := false
		for p, s := range c.Dict {
			if s == "" {
				missCode, found = uint32(p), true
				break
			}
		}
		if !found {
			dict = append([]string{""}, c.Dict...)
			shift = 1
		}
	}
	codes := make([]uint32, len(idx))
	for j, i := range idx {
		if i < 0 {
			codes[j] = missCode
		} else {
			codes[j] = c.Codes[i] + shift
		}
	}
	out.Dict, out.Codes = dict, codes
	return out
}
