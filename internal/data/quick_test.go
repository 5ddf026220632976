package data

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomFrame builds an arbitrary small frame from a seed.
func randomFrame(rng *rand.Rand) *Frame {
	rows := 1 + rng.Intn(20)
	nCols := 1 + rng.Intn(6)
	cols := make([]*Column, nCols)
	for j := range cols {
		name := string(rune('a' + j))
		switch rng.Intn(3) {
		case 0:
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			cols[j] = NewFloatColumn(name, vals)
		case 1:
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = rng.Int63n(100)
			}
			cols[j] = NewIntColumn(name, vals)
		default:
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = string(rune('x' + rng.Intn(3)))
			}
			cols[j] = NewStringColumn(name, vals)
		}
	}
	return MustNewFrame(cols...)
}

func TestQuickGatherPreservesShapeAndTypes(t *testing.T) {
	prop := func(seed int64, opTag uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFrame(rng)
		n := rng.Intn(f.NumRows() + 1)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(f.NumRows())
		}
		out := f.Gather(idx, DeriveID("op", string(rune(opTag))))
		if out.NumRows() != n || out.NumCols() != f.NumCols() {
			return false
		}
		for j, c := range out.Columns() {
			orig := f.Columns()[j]
			if c.Type != orig.Type || c.Name != orig.Name {
				return false
			}
			if (c == orig) != isIota(idx, f.NumRows()) || (c.ID == orig.ID) != (c == orig) {
				return false // fresh IDs exactly when the selection is not every row in order
			}
			for i, src := range idx {
				if c.Type == Float64 {
					a, b := c.Floats[i], orig.Floats[src]
					if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
						return false
					}
				} else if c.StringAt(i) != orig.StringAt(src) {
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

func TestQuickSelectDropPartition(t *testing.T) {
	prop := func(seed int64, mask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFrame(rng)
		var chosen []string
		for j, name := range f.ColumnNames() {
			if mask&(1<<uint(j)) != 0 {
				chosen = append(chosen, name)
			}
		}
		sel, err := f.Select(chosen...)
		if err != nil {
			return false
		}
		rest, err := f.Drop(chosen...)
		if err != nil {
			return false
		}
		// Partition invariant: every column is in exactly one side, with
		// identity (ID and backing array) preserved.
		if sel.NumCols()+rest.NumCols() != f.NumCols() {
			return false
		}
		for _, c := range f.Columns() {
			inSel := sel.Column(c.Name) == c
			inRest := rest.Column(c.Name) == c
			if inSel == inRest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeriveIDCollisionFree(t *testing.T) {
	seen := make(map[string][2]string)
	prop := func(op, input string) bool {
		id := DeriveID(op, input)
		if prev, ok := seen[id]; ok {
			return prev[0] == op && prev[1] == input
		}
		seen[id] = [2]string{op, input}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCSVRoundTripPreservesShape(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFrame(rng)
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf, "roundtrip")
		if err != nil {
			return false
		}
		if back.NumRows() != f.NumRows() || back.NumCols() != f.NumCols() {
			return false
		}
		// Values survive as strings regardless of re-inferred types.
		for j, c := range f.Columns() {
			bc := back.Columns()[j]
			for i := 0; i < c.Len(); i++ {
				if c.Type.IsNumeric() {
					if math.Abs(bc.Float(i)-c.Float(i)) > 1e-9 {
						return false
					}
				} else if bc.StringAt(i) != c.StringAt(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickFilterSubset(t *testing.T) {
	prop := func(seed int64, threshold float64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(50)
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		f := MustNewFrame(NewFloatColumn("v", vals))
		out, err := f.FilterFloat("v", func(v float64) bool { return v > threshold }, "op")
		if err != nil {
			return false
		}
		if out.NumRows() > f.NumRows() {
			return false
		}
		for _, v := range out.Column("v").Floats {
			if v <= threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
