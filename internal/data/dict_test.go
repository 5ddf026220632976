package data

import (
	"sort"
	"strings"
	"testing"
)

func TestDictEncodedRoundTrip(t *testing.T) {
	vals := []string{"south", "north", "", "north", "south", "south"}
	plain := NewStringColumn("region", vals)
	dc := plain.DictEncoded()
	if !dc.IsDict() {
		t.Fatal("DictEncoded did not produce a dictionary column")
	}
	if dc.ID != plain.ID {
		t.Fatal("encoding must preserve the lineage ID (representation, not lineage)")
	}
	if !sort.StringsAreSorted(dc.Dict) {
		t.Fatalf("dictionary not sorted: %v", dc.Dict)
	}
	for i := 1; i < len(dc.Dict); i++ {
		if dc.Dict[i] == dc.Dict[i-1] {
			t.Fatalf("duplicate dictionary entry %q", dc.Dict[i])
		}
	}
	if dc.Len() != plain.Len() {
		t.Fatalf("rows: %d != %d", dc.Len(), plain.Len())
	}
	for i := range vals {
		if dc.StringAt(i) != vals[i] {
			t.Fatalf("row %d: %q != %q", i, dc.StringAt(i), vals[i])
		}
		if dc.IsMissing(i) != (vals[i] == "") {
			t.Fatalf("row %d: missing mismatch", i)
		}
	}
	got := dc.StringValues()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("StringValues row %d: %q != %q", i, got[i], vals[i])
		}
	}
	// Re-encoding an already-encoded column is a no-op.
	if dc.DictEncoded() != dc {
		t.Fatal("DictEncoded of a dict column should return the receiver")
	}
}

func TestDictEncodeIfCompactThreshold(t *testing.T) {
	low := make([]string, 100)
	for i := range low {
		low[i] = []string{"a", "b", "c"}[i%3]
	}
	if c := dictEncodeIfCompact(NewStringColumn("low", low)); !c.IsDict() {
		t.Fatal("low-cardinality column should dictionary-encode")
	}
	high := make([]string, 100)
	for i := range high {
		high[i] = strings.Repeat("x", i+1) // all distinct
	}
	if c := dictEncodeIfCompact(NewStringColumn("high", high)); c.IsDict() {
		t.Fatal("high-cardinality column should stay plain")
	}
	empty := NewStringColumn("empty", nil)
	if c := dictEncodeIfCompact(empty); c != empty {
		t.Fatal("empty column should be returned unchanged")
	}
}

func TestDictEdgeCases(t *testing.T) {
	// Zero rows: encoding yields an empty dictionary but a valid dict column.
	e := NewStringColumn("e", []string{}).DictEncoded()
	if !e.IsDict() || e.Len() != 0 || len(e.Dict) != 0 {
		t.Fatalf("empty encode: %+v", e)
	}
	// All-missing column: one dictionary entry (""), every row missing.
	na := NewStringColumn("na", []string{"", "", ""}).DictEncoded()
	if !na.IsDict() || len(na.Dict) != 1 || na.Dict[0] != "" {
		t.Fatalf("all-NA dictionary: %v", na.Dict)
	}
	for i := 0; i < na.Len(); i++ {
		if !na.IsMissing(i) {
			t.Fatalf("row %d should be missing", i)
		}
	}
	// A repeated dictionary entry breaks the dictionary rule: no decoder
	// admits one, and Validate refuses it.
	dup := NewDictColumn("d", []string{"a", "b", "b"}, []uint32{0, 1, 2, 1})
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), `entry "b" does not sort after "b"`) {
		t.Fatalf("a repeated entry: Validate returned %v, want it refused naming \"b\"", err)
	}
}

func TestDictGatherSharesOrExtendsDict(t *testing.T) {
	c := NewStringColumn("c", []string{"x", "y", "x", "z"}).DictEncoded()
	// No negative indices: the dictionary is shared, not copied.
	g := c.Gather([]int{3, 0, 0}, "id1")
	if !g.IsDict() || &g.Dict[0] != &c.Dict[0] {
		t.Fatal("gather without fills should share the dictionary")
	}
	for i, want := range []string{"z", "x", "x"} {
		if g.StringAt(i) != want {
			t.Fatalf("row %d: %q != %q", i, g.StringAt(i), want)
		}
	}
	// Negative index with "" absent from the dict: "" is prepended and the
	// dictionary stays sorted.
	g2 := c.Gather([]int{-1, 1}, "id2")
	if !g2.IsDict() || !sort.StringsAreSorted(g2.Dict) {
		t.Fatalf("extended dictionary unsorted: %v", g2.Dict)
	}
	if g2.StringAt(0) != "" || !g2.IsMissing(0) || g2.StringAt(1) != "y" {
		t.Fatalf("fill rows wrong: %q %q", g2.StringAt(0), g2.StringAt(1))
	}
	// Negative index with "" already present: dictionary is reused.
	withNA := NewStringColumn("m", []string{"", "q"}).DictEncoded()
	g3 := withNA.Gather([]int{-1, 1, 0}, "id3")
	if len(g3.Dict) != len(withNA.Dict) {
		t.Fatal("dictionary should not grow when it already holds \"\"")
	}
	if g3.StringAt(0) != "" || g3.StringAt(1) != "q" || g3.StringAt(2) != "" {
		t.Fatal("fill against existing \"\" wrong")
	}
}

func TestDictSizeBytesSmaller(t *testing.T) {
	vals := make([]string, 10000)
	for i := range vals {
		vals[i] = []string{"alpha", "beta", "gamma"}[i%3]
	}
	plain := NewStringColumn("c", vals)
	dc := plain.DictEncoded()
	// Expected: dictionary entries at string cost, codes at 4 bytes per row.
	var dictBytes int64
	for _, s := range dc.Dict {
		dictBytes += int64(len(s)) + 16
	}
	want := dictBytes + int64(len(dc.Codes))*4
	if got := dc.SizeBytes(); got != want {
		t.Fatalf("dict SizeBytes %d, want %d", got, want)
	}
	if dc.SizeBytes()*2 >= plain.SizeBytes() {
		t.Fatalf("dict form should be well under half the plain size: %d vs %d",
			dc.SizeBytes(), plain.SizeBytes())
	}
}

// TestDictOpsMatchPlainOps runs the relational ops on a dictionary-encoded
// column and on its plain twin; results must be identical frames (including
// lineage IDs, which encoding preserves).
func TestDictOpsMatchPlainOps(t *testing.T) {
	n := 5000
	cats := []string{"", "ant", "bee", "cat", "dog"}
	vals := make([]string, n)
	nums := make([]float64, n)
	for i := range vals {
		vals[i] = cats[(i*7)%len(cats)]
		nums[i] = float64(i%13) - 6
	}
	mk := func(encode bool) *Frame {
		c := NewStringColumn("cat", vals)
		if encode {
			c = c.DictEncoded()
		}
		return MustNewFrame(c, NewFloatColumn("v", nums))
	}
	plain, dict := mk(false), mk(true)

	run := func(name string, op func(*Frame) (*Frame, error)) {
		t.Run(name, func(t *testing.T) {
			p, err := op(plain)
			if err != nil {
				t.Fatal(err)
			}
			d, err := op(dict)
			if err != nil {
				t.Fatal(err)
			}
			framesEqual(t, p, d)
		})
	}
	run("filter", func(f *Frame) (*Frame, error) {
		return f.FilterFloat("v", func(v float64) bool { return v > 0 }, "op")
	})
	run("sort-asc", func(f *Frame) (*Frame, error) { return f.SortBy("cat", false, "op") })
	run("sort-desc", func(f *Frame) (*Frame, error) { return f.SortBy("cat", true, "op") })
	run("onehot", func(f *Frame) (*Frame, error) { return f.OneHot("cat", "op") })
	run("groupby", func(f *Frame) (*Frame, error) {
		return f.GroupBy("cat", []Agg{{Col: "v", Kind: AggMean}, {Col: "v", Kind: AggCount}}, "op")
	})
	run("distinct", func(f *Frame) (*Frame, error) { return f.Distinct("op", "cat") })
	run("join", func(f *Frame) (*Frame, error) {
		right := MustNewFrame(
			NewStringColumn("cat", []string{"ant", "cat", "eel"}).DictEncoded(),
			NewFloatColumn("w", []float64{10, 20, 30}),
		)
		return f.Join(right, "cat", Left, "op")
	})
	t.Run("append", func(t *testing.T) {
		p, err := plain.AppendRows(plain, "op")
		if err != nil {
			t.Fatal(err)
		}
		d, err := dict.AppendRows(dict, "op")
		if err != nil {
			t.Fatal(err)
		}
		framesEqual(t, p, d)
		if !d.Column("cat").IsDict() {
			t.Fatal("appending low-cardinality strings should stay dictionary-encoded")
		}
	})
}

func TestReadCSVDictEncodesLowCardinality(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("city,pop\n")
	for i := 0; i < 200; i++ {
		sb.WriteString([]string{"oslo", "lima"}[i%2])
		sb.WriteString(",1\n")
	}
	f, err := ReadCSV(strings.NewReader(sb.String()), "ds")
	if err != nil {
		t.Fatal(err)
	}
	c := f.Column("city")
	if !c.IsDict() {
		t.Fatal("low-cardinality CSV column should arrive dictionary-encoded")
	}
	if len(c.Dict) != 2 || c.StringAt(0) != "oslo" || c.StringAt(1) != "lima" {
		t.Fatalf("bad dict column: dict=%v", c.Dict)
	}
}
