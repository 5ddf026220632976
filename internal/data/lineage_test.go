package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
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

// TestRowSelectionsThatKeepEveryRowPassThrough: Filter, Gather, SortBy on
// sorted input and Distinct on distinct rows change no value, so they return
// the input's columns; the same selections that do change rows re-derive.
func TestRowSelectionsThatKeepEveryRowPassThrough(t *testing.T) {
	f := sampleFrame(t) // id 1..4 ascending, every row distinct
	keepAll := func(float64) bool { return true }
	all, err := f.FilterFloat("price", keepAll, "op")
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
		"FilterFloat keeping every row": all,
		"Gather of every row in order":  f.Gather([]int{0, 1, 2, 3}, "op"),
		"SortBy on sorted input":        sorted,
		"Distinct on distinct rows":     distinct,
	} {
		if !passesThrough(f, out) {
			t.Errorf("%s: columns were copied", name)
		}
	}

	desc, _ := f.SortBy("id", true, "op")
	byCat, _ := f.Distinct("op", "cat")
	for name, out := range map[string]*Frame{
		"Gather dropping a row": f.Gather([]int{0, 1, 2}, "op"),
		"SortBy reordering":     desc,
		"Distinct dropping":     byCat,
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

// TestDeriveIDHashesOpAndPartsSeparated: the ID of one input is
// H(op ‖ 0x00 ‖ input), the ID every single-input mint has always had, and
// each further part is one more separated field.
func TestDeriveIDHashesOpAndPartsSeparated(t *testing.T) {
	h := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:16])
	}
	if got, want := DeriveID("op", "x"), h("op\x00x"); got != want {
		t.Errorf("DeriveID(op, x) = %s, want %s", got, want)
	}
	if got, want := DeriveID("op", "L", "k", "x"), h("op\x00L\x00k\x00x"); got != want {
		t.Errorf("DeriveID(op, L, k, x) = %s, want %s", got, want)
	}
	if got, want := DeriveID("op"), h("op"); got != want {
		t.Errorf("DeriveID(op) = %s, want %s", got, want)
	}
	long := strings.Repeat("p", 1000) // past the stack buffer
	if got, want := DeriveID(long, long), h(long+"\x00"+long); got != want {
		t.Errorf("a mint past the stack buffer = %s, want %s", got, want)
	}
	if got, want := SourceID("ds", "a"), h("src\x00ds\x00a"); got != want {
		t.Errorf("SourceID(ds, a) = %s, want %s", got, want)
	}
	if DeriveID("op", "k1", "x") == DeriveID("op", "k2", "x") {
		t.Error("the ID does not cover a selecting column")
	}
}

// valueDigest is a test-only hash of a column's type and values, whatever
// their representation (a dictionary-encoded column hashes as its strings).
func valueDigest(c *Column) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(c.Type))
	put(uint64(c.Len()))
	for i := 0; i < c.Len(); i++ {
		switch c.Type {
		case Float64:
			put(math.Float64bits(c.Floats[i]))
		case Int64:
			put(uint64(c.Ints[i]))
		default:
			h.Write([]byte(c.StringAt(i)))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// lineagePair is two frames of rows rows that share lineage: the same
// value columns v and w, and each its own low-cardinality int key k (and a
// second key j), so an operation with one op hash applied to both sees the
// same value columns chosen by different keys.
func lineagePair(rng *rand.Rand, rows int) (*Frame, *Frame) {
	v, w := make([]float64, rows), make([]float64, rows)
	keys := make([][]int64, 4)
	for i := range keys {
		keys[i] = make([]int64, rows)
	}
	for r := 0; r < rows; r++ {
		v[r], w[r] = float64(rng.Intn(50)), rng.NormFloat64()
		for i := range keys {
			keys[i][r] = int64(rng.Intn(4))
		}
	}
	vc, wc := NewFloatColumn("v", v), NewFloatColumn("w", w)
	key := func(name, src string, vals []int64) *Column {
		return NewIntColumn(name, vals).WithID(SourceID(src, name))
	}
	return MustNewFrame(key("k", "a", keys[0]), key("j", "a", keys[1]), vc, wc),
		MustNewFrame(key("k", "b", keys[2]), key("j", "b", keys[3]), vc, wc)
}

// TestPropertyOneLineageIDNamesOneContent draws chains of row selections,
// joins, group-bys, derives and appends over two frames that share lineage,
// each operation's op hash a function of its parameters alone (as the ops
// layer's Hash is), and requires the map from every column ID seen to the
// digest of that column's values to be a function: one ID, one content.
func TestPropertyOneLineageIDNamesOneContent(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := lineagePair(rng, 200+rng.Intn(200))
		pool := []*Frame{a, b}
		seen := make(map[string]uint64)
		var trail []string
		record := func(f *Frame) {
			for _, c := range f.Columns() {
				d := valueDigest(c)
				if prev, ok := seen[c.ID]; ok && prev != d {
					t.Fatalf("seed %d: column %q has ID %s, which an earlier column with other values has, after %v", seed, c.Name, c.ID, trail)
				}
				seen[c.ID] = d
			}
		}
		record(a)
		record(b)
		pick := func() *Frame { return pool[rng.Intn(len(pool))] }
		cols := []string{"k", "j", "v", "w"}
		for step := 0; step < 12; step++ {
			f := pick()
			var out *Frame
			var err error
			var what string
			switch rng.Intn(7) {
			case 0:
				col, lim := cols[rng.Intn(len(cols))], float64(rng.Intn(3))
				what = fmt.Sprintf("filter %s > %g", col, lim)
				out, err = f.FilterFloat(col, func(x float64) bool { return x > lim }, what)
			case 1:
				col, desc := cols[rng.Intn(len(cols))], rng.Intn(2) == 0
				what = fmt.Sprintf("sort %s desc=%v", col, desc)
				out, err = f.SortBy(col, desc, what)
			case 2:
				key := cols[rng.Intn(2)]
				what = "distinct " + key
				out, err = f.Distinct(what, key)
			case 3:
				// The right side has one row per key, so that a join keeps
				// at most the left side's rows.
				kind := JoinKind(rng.Intn(2))
				what = fmt.Sprintf("join k kind=%d", kind)
				var right *Frame
				right, err = pick().Distinct("distinct k", "k")
				if err == nil {
					right, err = right.Select("k", "w")
				}
				if err == nil {
					out, err = f.Join(right, "k", kind, what)
				}
			case 4:
				key := cols[rng.Intn(2)]
				what = "groupby " + key + " v:mean w:sum"
				out, err = f.GroupBy(key, []Agg{{Col: "v", Kind: AggMean}, {Col: "w", Kind: AggSum}}, what)
			case 5:
				what = "derive d = v + w"
				out, err = f.DeriveFloat("d", []string{"v", "w"}, func(x []float64) float64 { return x[0] + x[1] }, "sum")
			case 6:
				what = "append rows"
				if g := pick(); f.NumRows()+g.NumRows() <= 1000 {
					out, err = f.AppendRows(g, what)
				}
			}
			if out == nil || err != nil {
				continue // the drawn frame lacks a column the operation needs
			}
			trail = append(trail, what)
			record(out)
			pool = append(pool, out)
		}
	}
}
