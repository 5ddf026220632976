package data

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// fuzzKinds is the number of key kinds fuzzKey builds.
const fuzzKinds = 6

// fuzzKey builds an n-row key column of the given kind, its cells picked by
// the bytes of vals in turn: a compact Int64, a sparse Int64, a Float64 with
// two NaN payloads and both zeros, a Bool, a plain String, or a dictionary
// String whose dictionary is unsorted. The strings include renderings of
// the other kinds' cells ("1", "NaN", "-0", "true"), so keys of two kinds
// can match.
func fuzzKey(kind byte, n int, vals []byte) *Column {
	pick := func(i int) int {
		if len(vals) == 0 {
			return 0
		}
		return int(vals[i%len(vals)])
	}
	strs := []string{"", "a", "1", "NaN", "-0", "true", "a\x00", "b"}
	switch kind % fuzzKinds {
	case 0:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = int64(pick(i)%8) - 4
		}
		return NewIntColumn("k", ints)
	case 1:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = int64(pick(i)%8-4) << 40
		}
		return NewIntColumn("k", ints)
	case 2:
		specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000bad), 0, math.Copysign(0, -1), 1, 2.5, -4, math.Inf(1)}
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = specials[pick(i)%8]
		}
		return NewFloatColumn("k", floats)
	case 3:
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = pick(i)%2 == 1
		}
		return NewBoolColumn("k", bools)
	case 4:
		plain := make([]string, n)
		for i := range plain {
			plain[i] = strs[pick(i)%len(strs)]
		}
		return NewStringColumn("k", plain)
	default:
		dict := []string{"b", "", "true", "1", "a\x00", "NaN"}
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(pick(i) % len(dict))
		}
		return NewDictColumn("k", dict, codes)
	}
}

// FuzzKeyedKernels checks the three kernels that key rows through key
// slots against references that compare rendered keys: the join against
// naiveJoinIndices for both kinds, the group-by's key order against a sort
// of the rendered keys, and Distinct against first-seen rendered tuples.
// Each also passes a side's columns through exactly when the reference
// keeps that side's rows in order (Column.Gather): the join's left (right)
// columns when naiveJoinIndices' left (right) indices are 0..n−1, the
// group-by's key when the rendered keys strictly ascend, Distinct's columns
// when no tuple repeats.
// The input picks the two key kinds, their row counts and their cells.
func FuzzKeyedKernels(f *testing.F) {
	for l := byte(0); l < fuzzKinds; l++ {
		for r := byte(0); r < fuzzKinds; r++ {
			f.Add([]byte{l, r, 13, 9, 0, 3, 1, 7, 2, 2, 5, 6, 4, 1})
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		vals := b[4:]
		lk := fuzzKey(b[0], int(b[2]%40), vals)
		rk := fuzzKey(b[1], int(b[3]%40), slices.Concat(vals[min(1, len(vals)):], vals))
		rv := make([]float64, rk.Len())
		left, right := MustNewFrame(lk), MustNewFrame(rk, NewFloatColumn("w", rv))
		for _, kind := range []JoinKind{Inner, Left} {
			wantL, wantR := naiveJoinIndices(lk, rk, kind)
			gotL, gotR := joinRowIndices(lk, rk, kind)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) {
				t.Fatalf("join kind %d: pairs %v %v, want %v %v", kind, gotL, gotR, wantL, wantR)
			}
			j, err := left.Join(right, "k", kind, "op")
			if err != nil {
				t.Fatal(err)
			}
			if keptL, keptR := j.Column("k") == lk, j.Column("w") == right.Column("w"); keptL != isIota(wantL, lk.Len()) || keptR != isIota(wantR, rk.Len()) {
				t.Fatalf("join kind %d: left, right passed through = %v, %v for pairs %v %v", kind, keptL, keptR, wantL, wantR)
			}
		}

		ones := make([]float64, lk.Len())
		for i := range ones {
			ones[i] = 1
		}
		g, err := MustNewFrame(lk, NewFloatColumn("v", ones)).GroupBy("k", []Agg{{Col: "v", Kind: AggSum}}, "op")
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]float64{}
		for i := range lk.Len() {
			count[lk.StringAt(i)]++
		}
		keys := make([]string, 0, len(count))
		for k := range count {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if g.NumRows() != len(keys) {
			t.Fatalf("group-by: %d groups, want %d", g.NumRows(), len(keys))
		}
		for i, k := range keys {
			if got := g.Columns()[0].StringAt(i); got != k || g.Column("v_sum").Floats[i] != count[k] {
				t.Fatalf("group-by row %d: key %q sum %v, want %q %v", i, got, g.Column("v_sum").Floats[i], k, count[k])
			}
		}
		ascending := true
		for i := 1; i < lk.Len(); i++ {
			ascending = ascending && lk.StringAt(i-1) < lk.StringAt(i)
		}
		if kept := g.Columns()[0] == lk; kept != ascending {
			t.Fatalf("group-by: key passed through = %v, keys strictly ascending = %v", kept, ascending)
		}

		other := fuzzKey(b[1], lk.Len(), vals)
		other.Name = "o"
		d, err := MustNewFrame(lk, other).Distinct("op")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]string]bool{}
		var want []string
		for i := range lk.Len() {
			if tuple := [2]string{lk.StringAt(i), other.StringAt(i)}; !seen[tuple] {
				seen[tuple] = true
				want = append(want, tuple[0], tuple[1])
			}
		}
		var got []string
		for i := range d.NumRows() {
			got = append(got, d.Column("k").StringAt(i), d.Column("o").StringAt(i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("distinct rows %q, want %q", got, want)
		}
		if kept, unique := d.Column("k") == lk && d.Column("o") == other, len(want) == 2*lk.Len(); kept != unique {
			t.Fatalf("distinct: columns passed through = %v, no tuple repeats = %v", kept, unique)
		}
	})
}

// isIota reports whether idx is 0, 1, …, n−1.
func isIota(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for j, i := range idx {
		if i != j {
			return false
		}
	}
	return true
}
