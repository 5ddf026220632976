package data

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refGroups is the reference grouping: each rendered key's rows in row
// order, and the keys sorted as strings.
func refGroups(key *Column) (order []string, rows map[string][]int) {
	rows = make(map[string][]int)
	for i := 0; i < key.Len(); i++ {
		k := key.StringAt(i)
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], i)
	}
	sort.Strings(order)
	return order, rows
}

// refAggregates computes sum, mean, min, max and count of v over rows the
// way a chunk-parallel scan does: NaN cells are missing; each 2048-row
// chunk sums its cells in row order from zero, and the chunk partials are
// added in chunk order.
func refAggregates(v []float64, rows []int) map[string]float64 {
	partials := make(map[int]float64)
	var chunks []int
	n := 0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		if math.IsNaN(v[i]) {
			continue
		}
		c := i / 2048
		if _, ok := partials[c]; !ok {
			chunks = append(chunks, c)
		}
		partials[c] += v[i]
		n++
		if v[i] < mn {
			mn = v[i]
		}
		if v[i] > mx {
			mx = v[i]
		}
	}
	var sum float64
	for _, c := range chunks {
		sum += partials[c]
	}
	out := map[string]float64{"v_sum": sum, "v_count": float64(len(rows)),
		"v_mean": math.NaN(), "v_min": math.NaN(), "v_max": math.NaN()}
	if n > 0 {
		out["v_mean"], out["v_min"], out["v_max"] = sum/float64(n), mn, mx
	}
	return out
}

// checkGroupBy groups key and v by the engine and by the reference and
// compares keys, row order and every aggregate bit for bit.
func checkGroupBy(t *testing.T, key *Column, v []float64) {
	t.Helper()
	aggs := []Agg{{Col: "v", Kind: AggSum}, {Col: "v", Kind: AggMean},
		{Col: "v", Kind: AggMin}, {Col: "v", Kind: AggMax}, {Col: "v", Kind: AggCount}}
	got, err := MustNewFrame(key, NewFloatColumn("v", v)).GroupBy(key.Name, aggs, "op")
	if err != nil {
		t.Fatal(err)
	}
	order, rows := refGroups(key)
	if got.NumRows() != len(order) {
		t.Fatalf("%d groups, want %d", got.NumRows(), len(order))
	}
	for gi, k := range order {
		if s := got.Columns()[0].StringAt(gi); s != k {
			t.Fatalf("group %d key %q, want %q", gi, s, k)
		}
		for col, want := range refAggregates(v, rows[k]) {
			if g := got.Column(col).Floats[gi]; math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("group %q %s: %v, want %v", k, col, g, want)
			}
		}
	}
}

// TestGroupByIntAndBoolKeysMatchNaive covers the key types the Kaggle
// workloads group on: Int64 keys through the direct-address table (compact
// spans, negatives included) and through the hash map (spans too sparse
// for the table, 1- to 19-digit values, MinInt64 and MaxInt64), and a Bool
// key. Values are small integers, so every sum is exact.
func TestGroupByIntAndBoolKeysMatchNaive(t *testing.T) {
	const n = 5000
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%17) - 8
	}
	wide := []int64{math.MinInt64, math.MaxInt64, -1, -10, -9, 0, 1, 9, 10, 11, 99, 100, -100, 101}
	for d := 1; d <= 19; d++ {
		p := int64(1)
		for range d - 1 {
			p *= 10
		}
		wide = append(wide, p, p+7, -p, -(p + 3))
	}
	keys := map[string]func(i int) int64{
		"dense":          func(i int) int64 { return int64(i % 700) },
		"dense-negative": func(i int) int64 { return int64(i%1001) - 500 },
		"dense-offset":   func(i int) int64 { return 100000 + int64(i*7%3000) },
		"sparse":         func(i int) int64 { return int64(i%300) * 100 },
		"wide":           func(i int) int64 { return wide[i%len(wide)] },
	}
	for name, key := range keys {
		t.Run(name, func(t *testing.T) {
			ints := make([]int64, n)
			for i := range ints {
				ints[i] = key(i)
			}
			checkGroupBy(t, NewIntColumn("k", ints), v)
		})
	}
	t.Run("bool", func(t *testing.T) {
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = i%3 == 0
		}
		checkGroupBy(t, NewBoolColumn("k", bools), v)
	})
	t.Run("bool-one-value", func(t *testing.T) {
		checkGroupBy(t, NewBoolColumn("k", make([]bool, n)), v)
	})
	t.Run("empty", func(t *testing.T) {
		for _, key := range []*Column{NewIntColumn("k", nil), NewBoolColumn("k", nil),
			NewFloatColumn("k", nil), NewStringColumn("k", nil), NewDictColumn("k", nil, nil)} {
			checkGroupBy(t, key, nil)
		}
	})
}

// TestGroupByNonIntegerValuesMatchChunkTree aggregates non-integer values
// with missing cells over 20 000 rows, so most groups span several
// 2048-row chunks and every sum depends on its addition tree: the engine
// must match the chunk tree bit for bit on every key representation.
func TestGroupByNonIntegerValuesMatchChunkTree(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, n)
	ints := make([]int64, n)
	sparse := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		if rng.Intn(10) == 0 {
			v[i] = math.NaN()
		}
		ints[i] = int64(rng.Intn(900)) - 450
		sparse[i] = int64(rng.Intn(900)) * 1_000_003
		floats[i] = float64(rng.Intn(300)) / 8
		strs[i] = "k" + strconv.Itoa(rng.Intn(500))
	}
	for name, key := range map[string]*Column{
		"int-dense":  NewIntColumn("k", ints),
		"int-sparse": NewIntColumn("k", sparse),
		"float":      NewFloatColumn("k", floats),
		"string":     NewStringColumn("k", strs),
		"dict":       NewStringColumn("k", strs).DictEncoded(),
	} {
		t.Run(name, func(t *testing.T) { checkGroupBy(t, key, v) })
	}
}

// TestDecimalOrderIsFormatIntOrder: the Int64 rank orders values as
// sort.Strings orders their strconv.FormatInt renderings.
func TestDecimalOrderIsFormatIntOrder(t *testing.T) {
	check := func(raw []int64, shifts []uint8) bool {
		seen := make(map[int64]bool)
		var vals []int64
		for i, v := range raw {
			if len(shifts) > 0 {
				v >>= shifts[i%len(shifts)] % 64
			}
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		return decimalOrderMatches(vals)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	fixed := []int64{9, 10, 1, 0, -10, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 1e18, -1e18, 99, 100}
	if !decimalOrderMatches(fixed) {
		t.Errorf("%v sorts out of decimal order", fixed)
	}
	slices.Sort(fixed) // ascending values: the order the direct-address table hands over
	if !decimalOrderMatches(fixed) {
		t.Errorf("%v sorts out of decimal order", fixed)
	}
}

// decimalOrderMatches sorts distinct vals with sortDecimal and reports
// whether that is the order of their renderings.
func decimalOrderMatches(vals []int64) bool {
	slots := make([]int32, len(vals))
	for i := range slots {
		slots[i] = int32(i)
	}
	sortDecimal(slots, func(s int32) int64 { return vals[s] })
	got := make([]string, len(slots))
	for i, s := range slots {
		got[i] = strconv.FormatInt(vals[s], 10)
	}
	want := slices.Clone(got)
	sort.Strings(want)
	return slices.Equal(got, want)
}

// TestGroupByRejectsNameClash: an aggregate whose output is named like the
// key column, or like an earlier aggregate, is an error naming the clash
// (it used to replace that column silently).
func TestGroupByRejectsNameClash(t *testing.T) {
	f := MustNewFrame(NewIntColumn("v_sum", []int64{1, 2, 1}), NewFloatColumn("v", []float64{1, 2, 2}))
	for name, aggs := range map[string][]Agg{
		"key":       {{Col: "v", Kind: AggSum}},
		"aggregate": {{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggMean}},
	} {
		t.Run(name, func(t *testing.T) {
			want := "v_sum"
			if name == "aggregate" {
				want = "v_mean"
			}
			out, err := f.GroupBy("v_sum", aggs, "op")
			if err == nil {
				t.Fatalf("no error; columns %v", out.ColumnNames())
			}
			if !strings.Contains(err.Error(), strconv.Quote(want)) {
				t.Errorf("error %q does not name %q", err, want)
			}
		})
	}
}
