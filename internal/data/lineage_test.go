package data

import (
	"testing"
)

// passesThrough reports whether every column of in is, pointer for pointer,
// the same-named column of out.
func passesThrough(in, out *Frame) bool {
	for _, c := range in.Columns() {
		if out.Column(c.Name) != c {
			return false
		}
	}
	return true
}

// rederived reports whether every column of in has a same-named column in
// out with a different ID.
func rederived(in, out *Frame, suffix string) bool {
	for _, c := range in.Columns() {
		o := out.Column(c.Name + suffix)
		if o == nil || o.ID == c.ID {
			return false
		}
	}
	return true
}

// TestLeftJoinKeepsTheLeftColumns: a Left join whose left rows each match at
// most one right row — a lookup of per-key aggregates — returns the left
// input's columns, pointer and ID, and derives fresh IDs for the right
// columns it re-aligned.
func TestLeftJoinKeepsTheLeftColumns(t *testing.T) {
	left := sampleFrame(t)
	right := MustNewFrame(
		NewIntColumn("id", []int64{4, 2, 9}),
		NewFloatColumn("score", []float64{0.4, 0.2, 0.9}),
	)
	got, err := left.Join(right, "id", Left, "op-join")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range left.Columns() {
		if o := got.Column(c.Name); o != c || o.ID != c.ID {
			t.Errorf("left column %q was copied (ID %s, input %s)", c.Name, o.ID, c.ID)
		}
	}
	if sc := got.Column("score"); sc.ID == right.Column("score").ID || sc.Floats[1] != 0.2 || sc.Floats[3] != 0.4 {
		t.Errorf("right column: ID %s (input %s), values %v", sc.ID, right.Column("score").ID, sc.Floats)
	}
}

// TestJoinReDerivesTheSideItChanges: a side whose rows the join drops,
// repeats or fills gets fresh IDs; the other side, kept row for row in
// order, passes through.
func TestJoinReDerivesTheSideItChanges(t *testing.T) {
	frame := func(key string, keys []int64, val string) *Frame {
		vals := make([]float64, len(keys))
		for i := range vals {
			vals[i] = float64(10*i + 1)
		}
		return MustNewFrame(NewIntColumn(key, keys), NewFloatColumn(val, vals))
	}
	cases := []struct {
		name        string
		left, right []int64
		kind        JoinKind
		keepL       bool
		keepR       bool
	}{
		{"inner drops a left row", []int64{1, 2, 3, 4}, []int64{1, 2, 4}, Inner, false, true},
		{"one left row matches two", []int64{1, 2}, []int64{1, 1, 2}, Inner, false, true},
		{"left join misses on the right", []int64{1, 2, 3}, []int64{1, 3}, Left, true, false},
		{"right rows out of order", []int64{1, 2, 3}, []int64{3, 2, 1}, Inner, true, false},
		{"both sides kept", []int64{1, 2, 3}, []int64{1, 2, 3}, Left, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, r := frame("k", tc.left, "a"), frame("k", tc.right, "b")
			got, err := l.Join(r, "k", tc.kind, "op-join")
			if err != nil {
				t.Fatal(err)
			}
			rv, _ := r.Drop("k")
			if passesThrough(l, got) != tc.keepL || rederived(l, got, "") == tc.keepL {
				t.Errorf("left side passed through = %v, want %v", passesThrough(l, got), tc.keepL)
			}
			if passesThrough(rv, got) != tc.keepR || rederived(rv, got, "") == tc.keepR {
				t.Errorf("right side passed through = %v, want %v", passesThrough(rv, got), tc.keepR)
			}
		})
	}
}

// TestJoinRenamesACopyOfAKeptRightColumn: a right column that passes
// through and collides with a left name is renamed "_r" on a copy that keeps
// its ID; the right input's column keeps its name.
func TestJoinRenamesACopyOfAKeptRightColumn(t *testing.T) {
	left := sampleFrame(t)
	right := MustNewFrame(
		NewIntColumn("id", []int64{1, 2, 3, 4}),
		NewFloatColumn("price", []float64{9, 8, 7, 6}),
	)
	in := right.Column("price")
	got, err := left.Join(right, "id", Left, "op-join")
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "price" || right.Column("price") != in {
		t.Fatalf("the right input's column was renamed to %q", in.Name)
	}
	pr := got.Column("price_r")
	if pr == nil || pr == in || pr.ID != in.ID || pr.Floats[0] != 9 {
		t.Errorf("price_r = %+v, want a renamed copy of the right input's price with its ID", pr)
	}
	if got.Column("price") != left.Column("price") {
		t.Error("the left price was copied")
	}
}

// TestRowSelectionsThatKeepEveryRowPassThrough: Filter, Head, SortBy on
// sorted input and Distinct on distinct rows change no value, so they return
// the input's columns; the same selections that do change rows re-derive.
func TestRowSelectionsThatKeepEveryRowPassThrough(t *testing.T) {
	f := sampleFrame(t) // id 1..4 ascending, every row distinct
	keepAll := func(float64) bool { return true }
	all, err := f.FilterFloat("price", keepAll, "op")
	if err != nil {
		t.Fatal(err)
	}
	allStr, err := f.FilterString("cat", func(string) bool { return true }, "op")
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := f.SortBy("id", false, "op")
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := f.Distinct("op")
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*Frame{
		"FilterFloat keeping every row":  all,
		"FilterString keeping every row": allStr,
		"Head past the last row":         f.Head(9, "op"),
		"SortBy on sorted input":         sorted,
		"Distinct on distinct rows":      distinct,
	} {
		if !passesThrough(f, out) {
			t.Errorf("%s: columns were copied", name)
		}
	}

	desc, _ := f.SortBy("id", true, "op")
	byCat, _ := f.Distinct("op", "cat")
	for name, out := range map[string]*Frame{
		"Head dropping a row": f.Head(3, "op"),
		"SortBy reordering":   desc,
		"Distinct dropping":   byCat,
	} {
		if !rederived(f, out, "") {
			t.Errorf("%s: a column kept its ID", name)
		}
	}
}

// TestGroupByKeepsAnAlreadyGroupedKey: keys already distinct and in output
// order make the key column the input's; the aggregates are new columns.
// Keys out of order or repeated re-derive it.
func TestGroupByKeepsAnAlreadyGroupedKey(t *testing.T) {
	aggs := []Agg{{Col: "v", Kind: AggSum}}
	for _, tc := range []struct {
		keys []int64
		keep bool
	}{
		{[]int64{3, 5, 7}, true},
		{[]int64{7, 5, 3}, false},
		{[]int64{3, 3, 7}, false},
		{[]int64{9, 10, 11}, false}, // "10" < "11" < "9": rendered order differs
	} {
		f := MustNewFrame(NewIntColumn("k", tc.keys), NewFloatColumn("v", []float64{1, 2, 3}))
		g, err := f.GroupBy("k", aggs, "op-gb")
		if err != nil {
			t.Fatal(err)
		}
		if kept := g.Column("k") == f.Column("k"); kept != tc.keep {
			t.Errorf("keys %v: key column passed through = %v, want %v", tc.keys, kept, tc.keep)
		}
		if !tc.keep && g.Column("k").ID == f.Column("k").ID {
			t.Errorf("keys %v: a re-gathered key column kept its ID", tc.keys)
		}
		if g.Column("v_sum").ID == f.Column("v").ID {
			t.Errorf("keys %v: the aggregate kept its input's ID", tc.keys)
		}
	}
}
