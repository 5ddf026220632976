package data

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/parallel"
)

// benchWorkers runs the benchmark body under pool widths 1 (sequential)
// and 4, restoring the global width afterwards.
func benchWorkers(b *testing.B, body func(b *testing.B)) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			body(b)
		})
	}
}

func BenchmarkJoinParallel(b *testing.B) {
	join := func(left, right *Frame) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := left.Join(right, "id", Left, "op"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	benchWorkers(b, join(benchFrame(200000, 1), benchFrame(100000, 2)))
	b.Run("lookup", func(b *testing.B) { benchWorkers(b, join(benchLookup())) })
}

// benchLookup is the shape of every Kaggle join: a 4 000-row base table with
// one row per key, Left-joined with per-key aggregates of three quarters of
// those keys in another order (a group-by's output). The join keeps every
// base row once and in order, so the base's columns pass through and only
// the aggregates are gathered.
func benchLookup() (base, aggs *Frame) {
	const rows, baseCols, aggCols = 4000, 16, 5
	rng := rand.New(rand.NewSource(5))
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(100000 + i)
	}
	cols := []*Column{NewIntColumn("id", ids)}
	for j := 0; j < baseCols; j++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		cols = append(cols, NewFloatColumn(fmt.Sprintf("b%d", j), vals))
	}
	keys := make([]int64, 0, rows*3/4)
	for _, i := range rng.Perm(rows)[:rows*3/4] {
		keys = append(keys, ids[i])
	}
	right := []*Column{NewIntColumn("id", keys)}
	for j := 0; j < aggCols; j++ {
		vals := make([]float64, len(keys))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		right = append(right, NewFloatColumn(fmt.Sprintf("a%d", j), vals))
	}
	return MustNewFrame(cols...), MustNewFrame(right...)
}

// BenchmarkJoinDictKeyParallel joins on a dictionary-encoded string key:
// the kernel remaps dictionary codes instead of hashing rendered strings.
func BenchmarkJoinDictKeyParallel(b *testing.B) {
	left := benchStringKeyFrame(200000, 1)
	right := benchStringKeyFrame(100000, 2)
	benchWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := left.Join(right, "sid", Left, "op"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGroupByParallel(b *testing.B) {
	f := benchFrame(200000, 3)
	aggs := []Agg{{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggSum}, {Col: "v", Kind: AggMax}}
	benchWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.GroupBy("id", aggs, "op"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupByDictKeyParallel groups by a dictionary-encoded string key.
func BenchmarkGroupByDictKeyParallel(b *testing.B) {
	f := benchStringKeyFrame(200000, 3)
	aggs := []Agg{{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggSum}, {Col: "v", Kind: AggMax}}
	benchWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.GroupBy("sid", aggs, "op"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOneHotParallel(b *testing.B) {
	f := benchFrame(200000, 4)
	benchWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.OneHot("cat", "op"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchStringKeyFrame is benchFrame plus a dictionary-encoded string key
// column "sid" mirroring the int "id" column (same join cardinality).
func benchStringKeyFrame(rows int, seed int64) *Frame {
	f := benchFrame(rows, seed)
	id := f.Column("id")
	vals := make([]string, id.Len())
	for i := range vals {
		vals[i] = "s" + strconv.FormatInt(id.Ints[i], 10)
	}
	out, err := f.WithColumn(NewStringColumn("sid", vals).DictEncoded())
	if err != nil {
		panic(err)
	}
	return out
}

func benchFrame(rows int, seed int64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	cat := make([]string, rows)
	cats := []string{"a", "b", "c", "d", "e"}
	for i := range ids {
		ids[i] = int64(rng.Intn(rows / 2))
		vals[i] = rng.NormFloat64()
		cat[i] = cats[rng.Intn(len(cats))]
	}
	return MustNewFrame(
		NewIntColumn("id", ids),
		NewFloatColumn("v", vals),
		NewStringColumn("cat", cat),
	)
}

func BenchmarkJoin(b *testing.B) {
	join := func(left, right *Frame) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := left.Join(right, "id", Left, "op"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("%d", rows), join(benchFrame(rows, 1), benchFrame(rows/2, 2)))
	}
	b.Run("lookup-4000", join(benchLookup()))
}

func BenchmarkGroupBy(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		f := benchFrame(rows, 3)
		aggs := []Agg{{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggSum}, {Col: "v", Kind: AggMax}}
		b.Run(fmt.Sprintf("%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.GroupBy("id", aggs, "op"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOneHot(b *testing.B) {
	f := benchFrame(10000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.OneHot("cat", "op"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter(b *testing.B) {
	f := benchFrame(10000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.FilterFloat("v", func(v float64) bool { return v > 0 }, "op"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeriveID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DeriveID("some-operation-hash", "some-column-id")
	}
}

// BenchmarkQuantiles builds the quantile view a tree learner trains on, at
// the ruler's shape: 4 000 rows of a continuous column, whose edges are
// order statistics of the strided sample, and of a 20-distinct column, whose
// edges are its distinct values. A pass builds each view once, so an
// iteration takes the next of 64 columns of each shape: a branch predictor
// that saw one column thousands of times would learn its rows by heart.
func BenchmarkQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	continuous, distinct := make([][]float64, 64), make([][]float64, 64)
	for c := range continuous {
		continuous[c], distinct[c] = make([]float64, 4000), make([]float64, 4000)
		for i := range continuous[c] {
			continuous[c][i] = rng.NormFloat64() * 1e5
			distinct[c][i] = float64(rng.Intn(20))
		}
	}
	for _, bc := range []struct {
		name string
		cols [][]float64
	}{{"continuous", continuous}, {"distinct=20", distinct}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quantize(bc.cols[i%len(bc.cols)])
			}
		})
	}
}
