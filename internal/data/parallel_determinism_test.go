package data

import (
	"math"
	"sort"
	"testing"

	"repro/internal/parallel"
)

// atWidth runs fn under the given pool width, restoring the width after.
func atWidth(workers int, fn func() *Frame) *Frame {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	return fn()
}

func framesEqual(t *testing.T, a, b *Frame) {
	t.Helper()
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		t.Fatalf("shape differs: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	ac, bc := a.Columns(), b.Columns()
	for i := range ac {
		if ac[i].Name != bc[i].Name || ac[i].ID != bc[i].ID || ac[i].Type != bc[i].Type {
			t.Fatalf("column %d meta differs: %+v vs %+v", i, ac[i], bc[i])
		}
		for r := 0; r < ac[i].Len(); r++ {
			av, bv := ac[i].StringAt(r), bc[i].StringAt(r)
			if av != bv {
				t.Fatalf("column %s row %d differs: %q vs %q", ac[i].Name, r, av, bv)
			}
		}
	}
}

// TestKernelsDeterministicAcrossPoolWidths requires the parallelized
// join/groupby/one-hot kernels to produce identical frames — values, column
// order, names, and lineage IDs — at pool widths 1, 2, and 8, across every
// key representation the kernels dispatch on (numeric tokens, dictionary
// codes, rendered strings) and both join kinds.
func TestKernelsDeterministicAcrossPoolWidths(t *testing.T) {
	left := benchFrame(9000, 21)
	right := benchFrame(4500, 22)
	aggs := []Agg{{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggSum}, {Col: "v", Kind: AggCount}}

	checkWidths := func(t *testing.T, mk func() *Frame) {
		t.Helper()
		base := atWidth(1, mk)
		for _, w := range []int{2, 8} {
			framesEqual(t, base, atWidth(w, mk))
		}
	}
	for _, kind := range []JoinKind{Inner, Left} {
		name := map[JoinKind]string{Inner: "inner", Left: "left"}[kind]
		t.Run("join-int-"+name, func(t *testing.T) {
			checkWidths(t, func() *Frame {
				out, err := left.Join(right, "id", kind, "op")
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		})
		// String joins use a ~700-value key ("sid"); joining on the 5-value
		// "cat" column would emit a multi-million-row near-cross-product.
		sl, sr := stringKeyed(t, left), stringKeyed(t, right)
		t.Run("join-string-"+name, func(t *testing.T) {
			checkWidths(t, func() *Frame {
				out, err := sl.Join(sr, "sid", kind, "op")
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		})
		t.Run("join-dict-"+name, func(t *testing.T) {
			dl, dr := dictKeyed(t, sl, "sid"), dictKeyed(t, sr, "sid")
			checkWidths(t, func() *Frame {
				out, err := dl.Join(dr, "sid", kind, "op")
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		})
	}
	t.Run("groupby-int", func(t *testing.T) {
		checkWidths(t, func() *Frame {
			out, err := left.GroupBy("id", aggs, "op")
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
	t.Run("groupby-string", func(t *testing.T) {
		checkWidths(t, func() *Frame {
			out, err := left.GroupBy("cat", aggs, "op")
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
	t.Run("groupby-dict", func(t *testing.T) {
		dl := dictKeyed(t, left, "cat")
		checkWidths(t, func() *Frame {
			out, err := dl.GroupBy("cat", aggs, "op")
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
	t.Run("onehot", func(t *testing.T) {
		checkWidths(t, func() *Frame {
			out, err := left.OneHot("cat", "op")
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
}

// TestKernelsSpawnHelpersAtWidth replaces the speed-up ratio of the *Parallel
// benchmarks with the count behind it. A kernel that fell back to sequential
// passes still returns the right frame at every width, and only its timing
// would tell; what it cannot do is show helpers in the pool's counts.
// Every pool call of the join and of the group-by splits into at least four
// chunks on these frames, so at width 4 each call runs on the caller plus
// three helpers, and at width 1 on the caller alone — the same calls and the
// same chunks either way.
func TestKernelsSpawnHelpersAtWidth(t *testing.T) {
	left, right := benchFrame(9000, 21), benchFrame(9000, 22)
	for _, k := range []struct {
		name string
		run  func() (*Frame, error)
	}{
		{"join", func() (*Frame, error) { return left.Join(right, "id", Left, "op") }},
		{"group-by", func() (*Frame, error) { return left.GroupBy("id", []Agg{{Col: "v", Kind: AggMean}}, "op") }},
	} {
		var chunks [2]int64
		for i, width := range []int{1, 4} {
			before := parallel.ReadCounts()
			atWidth(width, func() *Frame {
				out, err := k.run()
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
			after := parallel.ReadCounts()
			calls, helpers := after.Calls-before.Calls, after.Helpers-before.Helpers
			chunks[i] = after.Chunks - before.Chunks
			if calls == 0 || helpers != int64(width-1)*calls || after.Denied != before.Denied {
				t.Errorf("%s at width %d: %d pool calls spawned %d helpers (%d slots denied), want %d per call",
					k.name, width, calls, helpers, after.Denied-before.Denied, width-1)
			}
		}
		if chunks[0] != chunks[1] {
			t.Errorf("%s splits into %d chunks at width 1 and %d at width 4: chunking depends on the width", k.name, chunks[0], chunks[1])
		}
	}
}

// dictKeyed replaces the named column of f with its dictionary-encoded form.
func dictKeyed(t *testing.T, f *Frame, col string) *Frame {
	t.Helper()
	out, err := f.WithColumn(f.Column(col).DictEncoded())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stringKeyed adds a plain string key column "sid" mirroring the int "id"
// column (same join cardinality, string token path).
func stringKeyed(t *testing.T, f *Frame) *Frame {
	t.Helper()
	id := f.Column("id")
	vals := make([]string, id.Len())
	for i := range vals {
		vals[i] = "s" + id.StringAt(i)
	}
	out, err := f.WithColumn(NewStringColumn("sid", vals))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// naiveJoinIndices is the reference join: rendered keys, one map, row-by-row
// probe — the sequential kernel the radix join must reproduce exactly.
func naiveJoinIndices(lk, rk *Column, kind JoinKind) (lidx, ridx []int) {
	index := make(map[string][]int)
	for i := 0; i < rk.Len(); i++ {
		k := rk.StringAt(i)
		index[k] = append(index[k], i)
	}
	for i := 0; i < lk.Len(); i++ {
		hit := index[lk.StringAt(i)]
		if len(hit) == 0 {
			if kind == Left {
				lidx = append(lidx, i)
				ridx = append(ridx, -1)
			}
			continue
		}
		for _, j := range hit {
			lidx = append(lidx, i)
			ridx = append(ridx, j)
		}
	}
	return lidx, ridx
}

// TestJoinMatchesNaiveJoin checks the join's emitted row pairs against the
// reference implementation for every slot path of the right side and every
// way a left key maps into it: compact int keys (with negatives, and with
// left keys outside the right's span), sparse int keys on the hash path,
// float keys with NaN payloads and signed zeros, bool keys, plain string
// keys, dict keys (shared, disjoint and unsorted dictionaries),
// dict-vs-plain, a mixed-type key (int left, float right) that must match
// through rendered strings, and an empty right side.
func TestJoinMatchesNaiveJoin(t *testing.T) {
	ints := make([]int64, 3000)
	floats := make([]float64, 1500)
	strs := make([]string, 3000)
	for i := range ints {
		ints[i] = int64(i % 700)
		strs[i] = []string{"", "a", "b", "c", "dd"}[i%5]
	}
	for i := range floats {
		floats[i] = float64(i % 900) // integral floats render like ints
	}
	intCol := NewIntColumn("k", ints)
	floatCol := NewFloatColumn("k", floats)
	strCol := NewStringColumn("k", strs)
	dictCol := strCol.DictEncoded()
	shortStr := NewStringColumn("k", strs[:1100])
	shortDict := shortStr.DictEncoded()
	negs, outside, sparse := make([]int64, 2000), make([]int64, 2000), make([]int64, 2000)
	nanZero, bools := make([]float64, 2000), make([]bool, 2000)
	otherNaN := math.Float64frombits(0x7ff8000000000bad)
	for i := range negs {
		negs[i] = int64(i%900) - 450
		outside[i] = int64(i%1500) - 700 // below, inside and above negs[:600]'s span
		sparse[i] = int64(i%300) * 1_000_003
		nanZero[i] = []float64{math.NaN(), otherNaN, 0, math.Copysign(0, -1), 1.5, float64(i % 40)}[i%6]
		bools[i] = i%3 == 0
	}
	unsorted := NewDictColumn("k", []string{"dd", "", "b", "zz", "a"}, make([]uint32, 1500))
	disjoint := NewDictColumn("k", []string{"p", "q"}, make([]uint32, 700))
	for i := range unsorted.Codes {
		unsorted.Codes[i] = uint32(i*7) % 5
	}
	for i := range disjoint.Codes {
		disjoint.Codes[i] = uint32(i % 2)
	}

	cases := []struct {
		name   string
		lk, rk *Column
	}{
		{"int-int", intCol, NewIntColumn("k", ints[:1200])},
		{"string-string", strCol, shortStr},
		{"dict-dict", dictCol, shortDict},
		{"dict-plain", dictCol, shortStr},
		{"mixed-int-float", intCol, floatCol},
		{"int-negative", NewIntColumn("k", negs), NewIntColumn("k", negs[:1200])},
		{"int-outside-span", NewIntColumn("k", outside), NewIntColumn("k", negs[:600])},
		{"int-sparse", NewIntColumn("k", negs), NewIntColumn("k", sparse)},
		{"sparse-sparse", NewIntColumn("k", sparse), NewIntColumn("k", sparse[:900])},
		{"float-nan-zero", NewFloatColumn("k", nanZero), NewFloatColumn("k", nanZero[:700])},
		{"bool-bool", NewBoolColumn("k", bools), NewBoolColumn("k", bools[:40])},
		{"dict-dict-disjoint", dictCol, disjoint},
		{"dict-dict-unsorted", dictCol, unsorted},
		{"unsorted-dict", unsorted, shortDict},
		{"int-empty-right", intCol, NewIntColumn("k", nil)},
		{"dict-empty-right", dictCol, NewDictColumn("k", nil, nil)},
	}
	for _, tc := range cases {
		for _, kind := range []JoinKind{Inner, Left} {
			name := tc.name + map[JoinKind]string{Inner: "-inner", Left: "-left"}[kind]
			t.Run(name, func(t *testing.T) {
				wantL, wantR := naiveJoinIndices(tc.lk, tc.rk, kind)
				gotL, gotR := joinRowIndices(tc.lk, tc.rk, kind)
				if len(gotL) != len(wantL) {
					t.Fatalf("%d pairs, want %d", len(gotL), len(wantL))
				}
				for i := range wantL {
					if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
						t.Fatalf("pair %d: (%d,%d) != (%d,%d)",
							i, gotL[i], gotR[i], wantL[i], wantR[i])
					}
				}
			})
		}
	}
}

// TestGroupByMatchesNaive checks the group-by engine against a direct
// row-list reference on every key representation, including NaN float keys
// (all NaNs collapse into one group) and signed zeros (distinct groups).
// Aggregated values are small integers, so sums are exact and the chunked
// kernel's different floating-point association cannot blur the comparison.
func TestGroupByMatchesNaive(t *testing.T) {
	n := 4000
	fvals := make([]float64, n)
	v := make([]float64, n)
	for i := range fvals {
		switch i % 7 {
		case 0:
			fvals[i] = math.NaN()
		case 1:
			fvals[i] = math.Copysign(0, -1)
		case 2:
			fvals[i] = 0
		default:
			fvals[i] = float64(i % 11)
		}
		v[i] = float64(i%17) - 8
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = []string{"", "x", "y", "zz"}[i%4]
	}
	aggs := []Agg{{Col: "v", Kind: AggSum}, {Col: "v", Kind: AggMean},
		{Col: "v", Kind: AggMin}, {Col: "v", Kind: AggMax}, {Col: "v", Kind: AggCount}}
	for _, key := range []*Column{
		NewFloatColumn("k", fvals),
		NewStringColumn("k", strs),
		NewStringColumn("k", strs).DictEncoded(),
	} {
		name := "float"
		if key.Type == String {
			name = "string"
			if key.IsDict() {
				name = "dict"
			}
		}
		t.Run(name, func(t *testing.T) {
			f := MustNewFrame(key, NewFloatColumn("v", v))
			got, err := f.GroupBy("k", aggs, "op")
			if err != nil {
				t.Fatal(err)
			}
			// Reference: rendered-key row lists, sequential accumulation.
			rows := make(map[string][]int)
			var order []string
			for i := 0; i < key.Len(); i++ {
				k := key.StringAt(i)
				if _, ok := rows[k]; !ok {
					order = append(order, k)
				}
				rows[k] = append(rows[k], i)
			}
			sort.Strings(order)
			if got.NumRows() != len(order) {
				t.Fatalf("%d groups, want %d", got.NumRows(), len(order))
			}
			for gi, k := range order {
				if got.Columns()[0].StringAt(gi) != k {
					t.Fatalf("group %d key %q, want %q", gi, got.Columns()[0].StringAt(gi), k)
				}
				var sum float64
				mn, mx := math.Inf(1), math.Inf(-1)
				cnt := 0
				for _, i := range rows[k] {
					sum += v[i]
					if v[i] < mn {
						mn = v[i]
					}
					if v[i] > mx {
						mx = v[i]
					}
					cnt++
				}
				check := func(col string, want float64) {
					t.Helper()
					gotV := got.Column(col).Floats[gi]
					if math.Float64bits(gotV) != math.Float64bits(want) {
						t.Fatalf("group %q %s: %v != %v", k, col, gotV, want)
					}
				}
				check("v_sum", sum)
				check("v_mean", sum/float64(cnt))
				check("v_min", mn)
				check("v_max", mx)
				check("v_count", float64(len(rows[k])))
			}
		})
	}
}
