package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f, err := NewFrame(
		NewIntColumn("id", []int64{1, 2, 3, 4}),
		NewFloatColumn("price", []float64{10, 20, 30, 40}),
		NewStringColumn("cat", []string{"a", "b", "a", "c"}),
	)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	return f
}

func TestNewFrameRejectsDuplicateNames(t *testing.T) {
	_, err := NewFrame(
		NewIntColumn("id", []int64{1}),
		NewFloatColumn("id", []float64{1}),
	)
	if err == nil {
		t.Fatal("want error for duplicate column names")
	}
}

func TestNewFrameRejectsRaggedColumns(t *testing.T) {
	_, err := NewFrame(
		NewIntColumn("a", []int64{1, 2}),
		NewFloatColumn("b", []float64{1}),
	)
	if err == nil {
		t.Fatal("want error for mismatched column lengths")
	}
}

func TestSelectSharesColumns(t *testing.T) {
	f := sampleFrame(t)
	sel, err := f.Select("price", "id")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.NumCols() != 2 || sel.NumRows() != 4 {
		t.Fatalf("got shape %dx%d, want 4x2", sel.NumRows(), sel.NumCols())
	}
	if sel.Column("price") != f.Column("price") {
		t.Error("selected column should be shared (same pointer)")
	}
	if sel.Column("price").ID != f.Column("price").ID {
		t.Error("selected column must keep its lineage ID")
	}
	if _, err := f.Select("nope"); err == nil {
		t.Error("want error selecting missing column")
	}
}

func TestDrop(t *testing.T) {
	f := sampleFrame(t)
	d, err := f.Drop("cat")
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if d.HasColumn("cat") || d.NumCols() != 2 {
		t.Fatalf("drop failed: %v", d.ColumnNames())
	}
}

func TestFilterChangesAllColumnIDs(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.FilterFloat("price", func(v float64) bool { return v > 15 }, "op1")
	if err != nil {
		t.Fatalf("FilterFloat: %v", err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("got %d rows, want 3", got.NumRows())
	}
	for _, c := range got.Columns() {
		if c.ID == f.Column(c.Name).ID {
			t.Errorf("column %q kept its ID across a row filter", c.Name)
		}
	}
}

func TestFilterDeterministicIDs(t *testing.T) {
	f := sampleFrame(t)
	a, _ := f.FilterFloat("price", func(v float64) bool { return v > 15 }, "op1")
	b, _ := f.FilterFloat("price", func(v float64) bool { return v > 15 }, "op1")
	for i, c := range a.Columns() {
		if c.ID != b.Columns()[i].ID {
			t.Errorf("same op, same input, different ID for %q", c.Name)
		}
	}
	c, _ := f.FilterFloat("price", func(v float64) bool { return v > 25 }, "op2")
	if c.Columns()[0].ID == a.Columns()[0].ID {
		t.Error("different ops must derive different IDs")
	}
}

func TestMapFloatOnlyChangesTargetColumn(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.MapFloat("price", func(v float64) float64 { return v * 2 }, "op-double")
	if err != nil {
		t.Fatalf("MapFloat: %v", err)
	}
	if got.Column("price").Floats[1] != 40 {
		t.Errorf("map not applied: %v", got.Column("price").Floats)
	}
	if got.Column("price").ID == f.Column("price").ID {
		t.Error("mapped column should get a new ID")
	}
	if got.Column("id") != f.Column("id") {
		t.Error("untouched column should be shared")
	}
}

func TestDeriveFloat(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.DeriveFloat("ratio", []string{"price", "id"}, func(a []float64) float64 { return a[0] / a[1] }, "op-ratio")
	if err != nil {
		t.Fatalf("DeriveFloat: %v", err)
	}
	want := []float64{10, 10, 10, 10}
	for i, v := range got.Column("ratio").Floats {
		if v != want[i] {
			t.Errorf("ratio[%d]=%v want %v", i, v, want[i])
		}
	}
}

func TestOneHot(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.OneHot("cat", "op-oh")
	if err != nil {
		t.Fatalf("OneHot: %v", err)
	}
	if got.HasColumn("cat") {
		t.Error("original column should be dropped")
	}
	for _, name := range []string{"cat=a", "cat=b", "cat=c"} {
		if !got.HasColumn(name) {
			t.Fatalf("missing one-hot column %q in %v", name, got.ColumnNames())
		}
	}
	if got.Column("cat=a").Floats[0] != 1 || got.Column("cat=a").Floats[1] != 0 {
		t.Errorf("cat=a wrong: %v", got.Column("cat=a").Floats)
	}
	if got.Column("id") != f.Column("id") {
		t.Error("one-hot must share untouched columns")
	}
}

func TestJoinInner(t *testing.T) {
	left := sampleFrame(t)
	right := MustNewFrame(
		NewIntColumn("id", []int64{2, 3, 9}),
		NewFloatColumn("score", []float64{0.2, 0.3, 0.9}),
	)
	got, err := left.Join(right, "id", Inner, "op-join")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", got.NumRows())
	}
	if got.Column("score").Floats[0] != 0.2 || got.Column("score").Floats[1] != 0.3 {
		t.Errorf("score wrong: %v", got.Column("score").Floats)
	}
}

func TestJoinLeftFillsMissing(t *testing.T) {
	left := sampleFrame(t)
	right := MustNewFrame(
		NewIntColumn("id", []int64{2}),
		NewFloatColumn("score", []float64{0.2}),
	)
	got, err := left.Join(right, "id", Left, "op-join")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got.NumRows() != 4 {
		t.Fatalf("got %d rows, want 4", got.NumRows())
	}
	sc := got.Column("score")
	if !math.IsNaN(sc.Floats[0]) || sc.Floats[1] != 0.2 {
		t.Errorf("left join fill wrong: %v", sc.Floats)
	}
}

func TestJoinDuplicateNonKeyColumns(t *testing.T) {
	left := sampleFrame(t)
	right := MustNewFrame(
		NewIntColumn("id", []int64{1}),
		NewFloatColumn("price", []float64{99}),
	)
	got, err := left.Join(right, "id", Inner, "op-join")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !got.HasColumn("price") || !got.HasColumn("price_r") {
		t.Errorf("collision suffix missing: %v", got.ColumnNames())
	}
}

func TestGroupBy(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.GroupBy("cat", []Agg{{Col: "price", Kind: AggSum}, {Col: "price", Kind: AggCount}}, "op-gb")
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("got %d groups, want 3", got.NumRows())
	}
	// groups sorted: a, b, c → sums 40, 20, 40
	sums := got.Column("price_sum").Floats
	if sums[0] != 40 || sums[1] != 20 || sums[2] != 40 {
		t.Errorf("sums wrong: %v", sums)
	}
	counts := got.Column("price_count").Floats
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("counts wrong: %v", counts)
	}
}

func TestFillNA(t *testing.T) {
	f := MustNewFrame(NewFloatColumn("x", []float64{1, math.NaN(), 3}))
	got, err := f.FillNA("op-fill")
	if err != nil {
		t.Fatalf("FillNA: %v", err)
	}
	if got.Column("x").Floats[1] != 2 {
		t.Errorf("fill wrong: %v", got.Column("x").Floats)
	}
	// A column with no missing values must keep its identity.
	clean := MustNewFrame(NewFloatColumn("y", []float64{1, 2}))
	got2, _ := clean.FillNA("op-fill")
	if got2.Column("y") != clean.Column("y") {
		t.Error("clean column should be shared, not copied")
	}
}

func TestConcatColumns(t *testing.T) {
	a := MustNewFrame(NewFloatColumn("x", []float64{1, 2}))
	b := MustNewFrame(NewFloatColumn("y", []float64{3, 4}))
	got, err := a.ConcatColumns(b)
	if err != nil {
		t.Fatalf("ConcatColumns: %v", err)
	}
	if got.NumCols() != 2 || got.NumRows() != 2 {
		t.Fatalf("bad shape %dx%d", got.NumRows(), got.NumCols())
	}
	if got.Column("y") != b.Column("y") {
		t.Error("concat should share columns")
	}
}

func TestAlign(t *testing.T) {
	a := MustNewFrame(NewFloatColumn("x", []float64{1}), NewFloatColumn("y", []float64{2}))
	b := MustNewFrame(NewFloatColumn("y", []float64{3}), NewFloatColumn("z", []float64{4}))
	ra, rb, err := Align(a, b)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if ra.NumCols() != 1 || rb.NumCols() != 1 || !ra.HasColumn("y") || !rb.HasColumn("y") {
		t.Errorf("align wrong: %v / %v", ra.ColumnNames(), rb.ColumnNames())
	}
}

func TestNumericMatrix(t *testing.T) {
	f := sampleFrame(t)
	m, names := f.NumericMatrix()
	if len(names) != 2 { // id, price; cat excluded
		t.Fatalf("names=%v", names)
	}
	if len(m) != 4 || m[2][1] != 30 {
		t.Errorf("matrix wrong: %v", m)
	}
}

func TestSizeBytes(t *testing.T) {
	f := sampleFrame(t)
	// id: 4*8, price: 4*8, cat: 4*(1+16)
	want := int64(32 + 32 + 68)
	if got := f.SizeBytes(); got != want {
		t.Errorf("SizeBytes=%d want %d", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sampleFrame(t)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, "ds")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.NumRows() != 4 || got.NumCols() != 3 {
		t.Fatalf("bad shape %dx%d", got.NumRows(), got.NumCols())
	}
	if got.Column("id").Type != Int64 || got.Column("price").Type != Int64 && got.Column("price").Type != Float64 {
		t.Errorf("type inference wrong: id=%s price=%s", got.Column("id").Type, got.Column("price").Type)
	}
	if got.Column("cat").Strings[3] != "c" {
		t.Errorf("cat wrong: %v", got.Column("cat").Strings)
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "a,b,c\n1,1.5,x\n2,,y\n"
	got, err := ReadCSV(strings.NewReader(in), "ds")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Column("a").Type != Int64 {
		t.Errorf("a should be int64, got %s", got.Column("a").Type)
	}
	if got.Column("b").Type != Float64 {
		t.Errorf("b should be float64, got %s", got.Column("b").Type)
	}
	if !math.IsNaN(got.Column("b").Floats[1]) {
		t.Error("missing float should be NaN")
	}
	if got.Column("c").Type != String {
		t.Errorf("c should be string, got %s", got.Column("c").Type)
	}
}

func TestSourceIDStability(t *testing.T) {
	if SourceID("ds", "a") != SourceID("ds", "a") {
		t.Error("SourceID must be deterministic")
	}
	if SourceID("ds", "a") == SourceID("ds", "b") {
		t.Error("distinct columns must get distinct source IDs")
	}
	if DeriveID("op", "x") == DeriveID("op", "y") {
		t.Error("distinct inputs must derive distinct IDs")
	}
}

func TestColumnValidate(t *testing.T) {
	good := []*Column{
		NewFloatColumn("f", []float64{1}),
		NewIntColumn("i", []int64{1}),
		NewStringColumn("s", []string{"x"}),
		NewStringColumn("s", []string{"x", "y", "x"}).DictEncoded(),
		NewBoolColumn("b", []bool{true}),
		{Name: "empty", Type: Int64}, // how a zero-row column decodes from gob
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s column %q: %v", c.Type, c.Name, err)
		}
	}
	bad := map[string]*Column{
		"unknown type":           {Name: "x", Type: DType(9), Floats: []float64{1}},
		"values of another type": {Name: "x", Type: Float64, Ints: []int64{1}},
		"two representations":    {Name: "x", Type: Float64, Floats: []float64{1}, Bools: []bool{true}},
		"plain and dictionary":   {Name: "x", Type: String, Strings: []string{"a"}, Dict: []string{"a"}, Codes: []uint32{0}},
		"code out of bounds":     {Name: "x", Type: String, Dict: []string{"a"}, Codes: []uint32{0, 1}},
	}
	for name, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateRefusesRepeatedDictEntry: a dictionary whose entry repeats
// gives one string two codes, and the key kernels take equal codes for
// equal strings — such a column would group "a" twice and join it once.
// Validate, which guards every decoded upload, refuses it and names the
// entry, in a sorted dictionary and an unsorted one.
func TestValidateRefusesRepeatedDictEntry(t *testing.T) {
	for _, dict := range [][]string{{"a", "a"}, {"b", "a", "c", "a"}} {
		err := NewDictColumn("k", dict, []uint32{0, 1, 0}).Validate()
		if err == nil || !strings.Contains(err.Error(), `"a" repeats`) {
			t.Errorf("dictionary %q: Validate returned %v, want an error naming \"a\"", dict, err)
		}
	}
	if err := NewDictColumn("k", []string{"b", "a", "c"}, []uint32{0, 1, 2}).Validate(); err != nil {
		t.Errorf("an unsorted dictionary of distinct entries: %v", err)
	}
}
