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
// split grown on bins routes rows as its float threshold does.
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
		for trial := 0; trial < 64; trial++ {
			v := math.Round(rng.NormFloat64()*8) / 4
			switch trial {
			case 0:
				v = math.Inf(1)
			case 1:
				v = math.Inf(-1)
			}
			bin := int(binOf(edges, v))
			if bin > len(edges) {
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
	// A missing float counts as 0, as in NumericMatrix.
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
	renamed := c.Rename("z", "op") // copied before the view exists
	q := c.Quantiles()
	if c.Quantiles() != q {
		t.Error("a second call built a second view")
	}
	if renamed.Quantiles() != q || c.WithID("other").Quantiles() != q {
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
	cp := c.Rename("y", "op")
	if allocs := testing.AllocsPerRun(10, func() { c.Quantiles(); cp.Quantiles() }); allocs != 0 {
		t.Errorf("asking a column and its copy for a built view allocates %.0f times", allocs)
	}
	if cp.Quantiles() != views[0] {
		t.Error("a later copy got a view of its own")
	}
}

// TestNumericRowsMatchesCellwiseConversion checks the column-wise fill
// against the per-cell definition it replaced, on every column type, on all
// rows and on a row subset, with a name the frame lacks.
func TestNumericRowsMatchesCellwiseConversion(t *testing.T) {
	f := MustNewFrame(
		NewFloatColumn("f", []float64{1.5, math.NaN(), -2, 0}),
		NewIntColumn("i", []int64{4, -1, 0, 9}),
		NewBoolColumn("b", []bool{true, false, false, true}),
		NewStringColumn("s", []string{"a", "", "c", "d"}),
	)
	names := []string{"b", "absent", "f", "s", "i"}
	cell := func(name string, i int) float64 {
		c := f.Column(name)
		if c == nil || !c.Type.IsNumeric() || c.IsMissing(i) {
			return 0
		}
		return c.Float(i)
	}
	for _, rows := range [][]int{nil, {3, 1, 1, 0}} {
		m := f.NumericRows(names, rows)
		want := rows
		if rows == nil {
			want = []int{0, 1, 2, 3}
		}
		if len(m) != len(want) {
			t.Fatalf("%d matrix rows, want %d", len(m), len(want))
		}
		for r, i := range want {
			for j, name := range names {
				if m[r][j] != cell(name, i) {
					t.Errorf("rows %v: cell [%d][%s] = %v, want %v", rows, r, name, m[r][j], cell(name, i))
				}
			}
		}
	}
	m, used := f.NumericMatrix()
	if len(used) != 3 || len(m) != 4 || len(m[0]) != 3 || m[1][0] != 0 || m[3][2] != 1 {
		t.Errorf("NumericMatrix() = %v over %v", m, used)
	}
}
