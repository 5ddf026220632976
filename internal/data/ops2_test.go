package data

import (
	"math"
	"slices"
	"testing"
)

func TestSortBy(t *testing.T) {
	f := MustNewFrame(
		NewFloatColumn("v", []float64{3, 1, math.NaN(), 2}),
		NewStringColumn("tag", []string{"c", "a", "n", "b"}),
	)
	asc, err := f.SortBy("v", false, "op")
	if err != nil {
		t.Fatal(err)
	}
	got := asc.Column("v").Floats
	if got[0] != 1 || got[1] != 2 || got[2] != 3 || !math.IsNaN(got[3]) {
		t.Errorf("asc order wrong: %v", got)
	}
	desc, err := f.SortBy("v", true, "op2")
	if err != nil {
		t.Fatal(err)
	}
	got = desc.Column("v").Floats
	if got[0] != 3 || got[1] != 2 || got[2] != 1 || !math.IsNaN(got[3]) {
		t.Errorf("desc order wrong: %v", got)
	}
	byTag, err := f.SortBy("tag", false, "op3")
	if err != nil {
		t.Fatal(err)
	}
	if byTag.Column("tag").Strings[0] != "a" {
		t.Errorf("string sort wrong: %v", byTag.Column("tag").Strings)
	}
	if _, err := f.SortBy("missing", false, "op"); err == nil {
		t.Error("missing column should error")
	}
}

func TestDistinct(t *testing.T) {
	f := MustNewFrame(
		NewStringColumn("k", []string{"a", "b", "a", "c", "b"}),
		NewFloatColumn("v", []float64{1, 2, 3, 4, 5}),
	)
	d, err := f.Distinct("op", "k")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 {
		t.Fatalf("got %d rows, want 3", d.NumRows())
	}
	// first-seen rows kept
	if d.Column("v").Floats[0] != 1 || d.Column("v").Floats[1] != 2 || d.Column("v").Floats[2] != 4 {
		t.Errorf("kept rows wrong: %v", d.Column("v").Floats)
	}
	// all-columns distinct
	all, err := f.Distinct("op2")
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 5 {
		t.Errorf("all rows are distinct, got %d", all.NumRows())
	}
}

// TestDistinctKeysCellsNotJoinedStrings requires Distinct to compare cells,
// not a rendering of the row: ("a\x00", "b") and ("a", "\x00b") differ,
// though both rows joined with NUL separators read "a\x00\x00b\x00". It also
// runs every key representation through it: NaNs are one value and ±0 two,
// as they render, and a dictionary column keys as its plain form does.
func TestDistinctKeysCellsNotJoinedStrings(t *testing.T) {
	nul := MustNewFrame(
		NewStringColumn("x", []string{"a\x00", "a", "a\x00"}),
		NewStringColumn("y", []string{"b", "\x00b", "b"}),
	)
	d, err := nul.Distinct("op")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Column("y").Strings; len(got) != 2 || got[0] != "b" || got[1] != "\x00b" {
		t.Errorf("distinct rows keep y %q, want [\"b\" \"\\x00b\"]", got)
	}

	f := MustNewFrame(
		NewFloatColumn("f", []float64{math.NaN(), math.Float64frombits(0x7ff8000000000bad), 0, math.Copysign(0, -1), 0, 2}),
		NewStringColumn("s", []string{"p", "p", "q", "q", "q", "p"}).DictEncoded(),
		NewBoolColumn("b", []bool{true, true, false, false, false, false}),
		NewIntColumn("i", []int64{7, 7, 7, 7, 7, 1 << 40}),
		NewIntColumn("row", []int64{0, 1, 2, 3, 4, 5}),
	)
	d, err = f.Distinct("op", "f", "s", "b", "i")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Column("row").Ints; !slices.Equal(got, []int64{0, 2, 3, 5}) {
		t.Errorf("distinct rows %v, want [0 2 3 5]", got)
	}
}

func TestAppendRows(t *testing.T) {
	a := MustNewFrame(NewFloatColumn("x", []float64{1, 2}), NewStringColumn("s", []string{"p", "q"}))
	b := MustNewFrame(NewFloatColumn("x", []float64{3}), NewStringColumn("s", []string{"r"}))
	out, err := a.AppendRows(b, "op")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows=%d", out.NumRows())
	}
	if out.Column("x").Floats[2] != 3 || out.Column("s").Strings[2] != "r" {
		t.Errorf("appended values wrong")
	}
	// int + float reconciles to float
	c := MustNewFrame(NewIntColumn("n", []int64{1}))
	d := MustNewFrame(NewFloatColumn("n", []float64{2.5}))
	out2, err := c.AppendRows(d, "op")
	if err != nil {
		t.Fatal(err)
	}
	if out2.Column("n").Type != Float64 || out2.Column("n").Floats[1] != 2.5 {
		t.Errorf("dtype reconciliation wrong: %v", out2.Column("n"))
	}
	// mismatched schema errors
	e := MustNewFrame(NewFloatColumn("other", []float64{1}))
	if _, err := a.AppendRows(e, "op"); err == nil {
		t.Error("column-count mismatch should error")
	}
	f := MustNewFrame(NewStringColumn("x", []string{"1"}), NewStringColumn("s", []string{"r"}))
	if _, err := a.AppendRows(f, "op"); err == nil {
		t.Error("string/float mix should error")
	}
}

func TestBin(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	f := MustNewFrame(NewFloatColumn("v", vals))
	out, err := f.Bin("v", 4, "op")
	if err != nil {
		t.Fatal(err)
	}
	c := out.Column("v")
	if c.Floats[0] != 0 || c.Floats[99] != 3 {
		t.Errorf("bin edges wrong: first=%v last=%v", c.Floats[0], c.Floats[99])
	}
	// roughly equal-frequency
	counts := map[float64]int{}
	for _, b := range c.Floats {
		counts[b]++
	}
	for b, n := range counts {
		if n < 20 || n > 30 {
			t.Errorf("bin %v has %d rows, want ~25", b, n)
		}
	}
	if _, err := f.Bin("v", 1, "op"); err == nil {
		t.Error("bins<2 should error")
	}
}

func TestRollingMean(t *testing.T) {
	f := MustNewFrame(NewFloatColumn("v", []float64{2, 4, 6, 8}))
	out, err := f.RollingMean("v", "rm", 2, "op")
	if err != nil {
		t.Fatal(err)
	}
	got := out.Column("rm").Floats
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rm[%d]=%v want %v", i, got[i], want[i])
		}
	}
	// missing values skipped in the window
	g := MustNewFrame(NewFloatColumn("v", []float64{1, math.NaN(), 3}))
	out2, err := g.RollingMean("v", "rm", 3, "op")
	if err != nil {
		t.Fatal(err)
	}
	if out2.Column("rm").Floats[2] != 2 {
		t.Errorf("NaN-skipping mean wrong: %v", out2.Column("rm").Floats)
	}
	if _, err := f.RollingMean("v", "rm", 0, "op"); err == nil {
		t.Error("window<1 should error")
	}
}
