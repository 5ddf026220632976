package data

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestQuickBinOfMatchesEdgeComparison is the equivalence the tree learners
// rest on: a row's bin is <= b exactly when its value is <= edges[b], so a
// split grown on bins routes rows as its float threshold does. It holds for
// the five-step search over the edges' keys and for binOf, the binary search
// it replaced.
func TestQuickBinOfMatchesEdgeComparison(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([]float64, rng.Intn(MaxBins))
		for i := range edges {
			edges[i] = math.Round(rng.NormFloat64()*8) / 4 // ties with the probes below
		}
		sort.Float64s(edges)
		k := 0
		for _, e := range edges { // strictly ascending, as quantileEdges builds them
			if k == 0 || e > edges[k-1] {
				edges[k] = e
				k++
			}
		}
		edges = edges[:k]
		var keys edgeKeys
		keys.fill(edges)
		for trial := 0; trial < 64; trial++ {
			v := math.Round(rng.NormFloat64()*8) / 4
			switch trial {
			case 0:
				v = math.Inf(1)
			case 1:
				v = math.Inf(-1)
			}
			bin := int(keys.bin(v))
			if bin > len(edges) || bin != int(binOf(edges, v)) {
				return false
			}
			for b := range edges {
				if (bin <= b) != (v <= edges[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sortedQuantileEdges is the edge finder quantize had before it selected:
// the distinct values when there are at most MaxBins, and otherwise the
// strided sample sorted whole and read at ranks k·m/MaxBins.
func sortedQuantileEdges(vals []float64) []float64 {
	distinct := make([]float64, 0, MaxBins)
	for _, v := range vals {
		k := int(binOf(distinct, v))
		if k < len(distinct) && distinct[k] == v {
			continue
		}
		if len(distinct) == MaxBins {
			distinct = nil
			break
		}
		distinct = append(distinct, 0)
		copy(distinct[k+1:], distinct[k:])
		distinct[k] = v
	}
	if distinct != nil {
		if len(distinct) > 0 {
			distinct = distinct[:len(distinct)-1]
		}
		return distinct
	}
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

// binOf is the per-row search quantize had before it searched the edge keys: the
// first bin whose edge is >= v, by binary search.
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

// TestQuickQuantizeMatchesTheSortedSample: for every length around the
// sample's and the bin count's boundaries and every column shape — normal,
// heavy ties, exactly 32 and 33 distinct values, infinities, a mass of −0
// and +0, constant — the selected view has the sorted one's bins, and its
// edges are the sorted one's bits once a −0 edge there is read as +0.
func TestQuickQuantizeMatchesTheSortedSample(t *testing.T) {
	lengths := []int{0, 1, 2, 31, 32, 33, 2047, 2048, 2049, 4095, 4096, 9000}
	shapes := map[string]func(rng *rand.Rand, i int) float64{
		"normal": func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() * 1e3 },
		"ties":   func(rng *rand.Rand, _ int) float64 { return math.Round(rng.ExpFloat64()*3) / 2 },
		"32":     func(_ *rand.Rand, i int) float64 { return float64(i*7%32) - 10 },
		"33":     func(_ *rand.Rand, i int) float64 { return float64(i * 7 % 33) },
		"inf": func(rng *rand.Rand, _ int) float64 {
			switch rng.Intn(5) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		},
		"zeros": func(rng *rand.Rand, _ int) float64 {
			switch rng.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return rng.NormFloat64()
		},
		"constant": func(*rand.Rand, int) float64 { return -7.25 },
	}
	signed := 0
	for name, shape := range shapes {
		for _, n := range lengths {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = shape(rng, i)
				}
				want := sortedQuantileEdges(append([]float64(nil), vals...))
				q := quantize(vals)
				if len(q.Edges) != len(want) {
					t.Fatalf("%s, %d rows, seed %d: %d edges, the sorted sample's %d", name, n, seed, len(q.Edges), len(want))
				}
				for k, e := range want {
					if e == 0 && math.Signbit(e) {
						signed++
						e = 0
					}
					if math.Float64bits(q.Edges[k]) != math.Float64bits(e) {
						t.Fatalf("%s, %d rows, seed %d: edge %d is %v, the sorted sample's %v", name, n, seed, k, q.Edges[k], e)
					}
				}
				for i, v := range vals {
					if b := binOf(want, v); q.Bins[i] != b {
						t.Fatalf("%s, %d rows, seed %d: row %d (%v) in bin %d, the sorted sample's %d", name, n, seed, i, v, q.Bins[i], b)
					}
				}
			}
		}
	}
	if signed == 0 {
		t.Error("no −0 edge in the sorted samples: the zero shape tests nothing")
	}
}

// TestQuantilesOfFewDistinctValues: every distinct value of a one-hot,
// boolean or small-integer column gets a bin of its own, rare ones included.
func TestQuantilesOfFewDistinctValues(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 1
	}
	vals[17], vals[400] = 0, 2 // 0.1 % each: quantile picks would miss both
	q := NewFloatColumn("x", vals).Quantiles()
	if want := []float64{0, 1}; len(q.Edges) != 2 || q.Edges[0] != want[0] || q.Edges[1] != want[1] {
		t.Fatalf("edges %v, want %v", q.Edges, want)
	}
	if q.Bins[17] != 0 || q.Bins[0] != 1 || q.Bins[400] != 2 {
		t.Errorf("bins of 0, 1, 2 are %d, %d, %d", q.Bins[17], q.Bins[0], q.Bins[400])
	}

	bools := NewBoolColumn("b", []bool{true, false, true, true}).Quantiles()
	if len(bools.Edges) != 1 || bools.Edges[0] != 0 || !bytes.Equal(bools.Bins, []uint8{1, 0, 1, 1}) {
		t.Errorf("bool column binned as %v / %v", bools.Edges, bools.Bins)
	}
	// A missing float counts as 0, as FillNumeric converts it.
	nan := NewFloatColumn("n", []float64{math.NaN(), 0, 3}).Quantiles()
	if nan.Bins[0] != nan.Bins[1] || nan.Bins[0] == nan.Bins[2] {
		t.Errorf("missing value binned apart from 0: %v", nan.Bins)
	}
	if q := NewFloatColumn("c", []float64{5, 5, 5}).Quantiles(); len(q.Edges) != 0 {
		t.Errorf("constant column has edges %v", q.Edges)
	}
	if q := NewFloatColumn("e", nil).Quantiles(); len(q.Edges) != 0 || len(q.Bins) != 0 {
		t.Errorf("empty column binned as %v / %v", q.Edges, q.Bins)
	}
}

// TestQuantileEdgesSampleIsBounded pins the stride's ceiling: 4095 distinct
// values are sampled at stride 2, not sorted whole as a floored stride of 1
// did, so the first edge is the 64th sample — the value 128.
func TestQuantileEdgesSampleIsBounded(t *testing.T) {
	vals := make([]float64, 2*quantileSample-1)
	for i := range vals {
		vals[i] = float64(i)
	}
	edges := quantileEdges(vals)
	if len(edges) != MaxBins-1 {
		t.Fatalf("%d edges, want %d", len(edges), MaxBins-1)
	}
	if want := float64(2 * (quantileSample / MaxBins)); edges[0] != want {
		t.Errorf("first edge %v, want %v: the sample is not %d strided rows", edges[0], want, quantileSample)
	}
	q := quantize(vals)
	for i, v := range vals {
		if b := int(q.Bins[i]); b < len(q.Edges) && v > q.Edges[b] || b > 0 && v <= q.Edges[b-1] {
			t.Fatalf("row %d (%v) is in bin %d of edges %v", i, v, b, q.Edges)
		}
	}
}

// TestQuantileMemoBelongsToTheColumnObject: the view is built once per
// column object and shared by the shallow copies that share its values; two
// columns that merely share a lineage ID — NewFloatColumn derives it from
// the name alone — have nothing to do with each other.
func TestQuantileMemoBelongsToTheColumnObject(t *testing.T) {
	c := NewFloatColumn("x", []float64{3, 1, 2, 1})
	early := c.WithID("early") // copied before the view exists
	q := c.Quantiles()
	if c.Quantiles() != q {
		t.Error("a second call built a second view")
	}
	if early.Quantiles() != q || c.WithID("other").Quantiles() != q {
		t.Error("a shallow copy does not share the view of the values it shares")
	}

	other := NewFloatColumn("x", []float64{10, 20, 30, 40, 50, 60})
	if other.ID != c.ID {
		t.Fatal("the two columns were meant to collide on ID")
	}
	oq := other.Quantiles()
	if oq == q || len(oq.Bins) != 6 || len(q.Bins) != 4 {
		t.Errorf("columns with one ID share a view: %d and %d bins", len(q.Bins), len(oq.Bins))
	}
}

// TestQuantileMemoIsNotContent: no codec carries the view, the byte count
// that budgets and Equation 2 read does not include it, and a decoded column
// rebuilds an equal one.
func TestQuantileMemoIsNotContent(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64(i%97) / 7
	}
	c := NewFloatColumn("x", vals)
	size := c.SizeBytes()
	encode := func() []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := encode()
	q := c.Quantiles()
	if c.SizeBytes() != size {
		t.Errorf("SizeBytes moved from %d to %d with the view", size, c.SizeBytes())
	}
	after := encode()
	if !bytes.Equal(before, after) {
		t.Error("the gob encoding of a column changed once its view was built")
	}
	var back Column
	if err := gob.NewDecoder(bytes.NewReader(after)).Decode(&back); err != nil {
		t.Fatal(err)
	}
	bq := back.Quantiles()
	if bq == q || !bytes.Equal(bq.Bins, q.Bins) || len(bq.Edges) != len(q.Edges) {
		t.Error("a decoded column did not rebuild an equal view of its own")
	}
}

// TestStringSizeMemoMatchesTheWalk: the size a string column remembers is
// the walk of its cells — 16 bytes plus the length per plain cell; per
// dictionary entry, plus 4 bytes of code per row — on the column and on the
// copies WithID and Rename make, which share it, with or without a quantile
// view built first; asking again allocates nothing.
func TestStringSizeMemoMatchesTheWalk(t *testing.T) {
	vals := []string{"alpha", "", "beta", "alpha", "gamma-delta", "beta", "alpha"}
	plain := NewStringColumn("s", vals)
	dict := plain.DictEncoded()
	var plainWalk, dictWalk int64
	for _, s := range vals {
		plainWalk += int64(len(s)) + 16
	}
	for _, s := range dict.Dict {
		dictWalk += int64(len(s)) + 16
	}
	dictWalk += 4 * int64(len(vals))
	for _, tc := range []struct {
		c    *Column
		walk int64
	}{{plain, plainWalk}, {dict, dictWalk}, {NewStringColumn("t", vals), plainWalk}} {
		if tc.c == plain {
			tc.c.Quantiles()
		}
		for _, c := range []*Column{tc.c, tc.c.WithID("copy")} {
			if got := c.SizeBytes(); got != tc.walk {
				t.Errorf("%s (dict %v): SizeBytes %d, walk %d", c.ID, c.IsDict(), got, tc.walk)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { tc.c.SizeBytes() }); allocs != 0 {
			t.Errorf("a remembered size allocates %.0f times", allocs)
		}
	}
	if dictWalk >= plainWalk {
		t.Fatalf("fixture: the dictionary form (%d bytes) should be the smaller (%d)", dictWalk, plainWalk)
	}
}

// TestQuantilesBuiltOnceUnderConcurrency, under -race: many goroutines asking
// one column (and a copy of it) for its view all get the one view, and once
// it is there asking again, on the column or on a copy, builds nothing.
func TestQuantilesBuiltOnceUnderConcurrency(t *testing.T) {
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = float64((i * 7919) % 5000)
	}
	c := NewFloatColumn("x", vals)
	views := make([]*Quantiles, 16)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			col := c
			if g%2 == 1 {
				col = c.WithID("copy")
			}
			views[g] = col.Quantiles()
		}(g)
	}
	wg.Wait()
	for _, v := range views {
		if v != views[0] {
			t.Fatal("goroutines got different views")
		}
	}
	cp := c.WithID("later")
	if allocs := testing.AllocsPerRun(10, func() { c.Quantiles(); cp.Quantiles() }); allocs != 0 {
		t.Errorf("asking a column and its copy for a built view allocates %.0f times", allocs)
	}
	if cp.Quantiles() != views[0] {
		t.Error("a later copy got a view of its own")
	}
}

// TestFillNumericMatchesCellwiseConversion checks the column-wise fill
// against the per-cell definition — a missing value and a string cell read
// as 0, an int as its float, a bool as 0 or 1 — on every column type, on
// all rows and on a row subset, into a column-major block (stride 1) and
// into a row-major one (stride d), where it writes no slot but its own.
func TestFillNumericMatchesCellwiseConversion(t *testing.T) {
	cols := []*Column{
		NewFloatColumn("f", []float64{1.5, math.NaN(), -2, 0}),
		NewIntColumn("i", []int64{4, -1, 0, 9}),
		NewBoolColumn("b", []bool{true, false, false, true}),
		NewStringColumn("s", []string{"a", "", "c", "d"}),
	}
	cell := func(c *Column, i int) float64 {
		if !c.Type.IsNumeric() || c.IsMissing(i) {
			return 0
		}
		return c.Float(i)
	}
	const untouched = 7.25
	for _, c := range cols {
		for _, rows := range [][]int{nil, {3, 1, 1, 0}} {
			want := rows
			if rows == nil {
				want = []int{0, 1, 2, 3}
			}
			for _, stride := range []int{1, 3} {
				dst := make([]float64, len(want)*stride)
				for k := range dst {
					dst[k] = untouched
				}
				c.FillNumeric(dst, stride, rows)
				for k, v := range dst {
					w := untouched
					if k%stride == 0 {
						w = cell(c, want[k/stride])
					}
					if v != w {
						t.Errorf("%s, rows %v, stride %d: slot %d = %v, want %v", c.Name, rows, stride, k, v, w)
					}
				}
			}
		}
	}
}
