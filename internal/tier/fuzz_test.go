package tier

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
)

// modeColumns holds a column of every payload a version-2 record can carry:
// each float and int mode, NaN payloads and −0, empty columns, plain and
// dictionary strings of each code width, bools.
func modeColumns() []*data.Column {
	nan := math.Float64frombits(0x7ff8000000000bad)
	negZero := math.Copysign(0, -1)
	var oneHot, counts, few, many, distinct []float64
	for i := 0; i < 600; i++ {
		oneHot = append(oneHot, float64(i%7/6))
		counts = append(counts, float64(i*i%1000-300))
		few = append(few, []float64{0.25, nan, negZero, math.Inf(1)}[i%4])
		many = append(many, float64(i%300)+0.5)
		distinct = append(distinct, float64(i)*1.1)
	}
	wide := make([]string, 300)
	wideCodes := make([]uint32, 600)
	for i := range wide {
		wide[i] = string(rune('a'+i/26)) + string(rune('a'+i%26)) // "aa", "ab", …: strictly ascending
	}
	for i := range wideCodes {
		wideCodes[i] = uint32(i % 300)
	}
	return []*data.Column{
		data.NewFloatColumn("onehot", oneHot),     // varint
		data.NewFloatColumn("counts", counts),     // varint, negative too
		data.NewFloatColumn("few", few),           // dict8: NaN payload, −0, Inf
		data.NewFloatColumn("many", many),         // dict16
		data.NewFloatColumn("distinct", distinct), // raw
		data.NewFloatColumn("specials", []float64{1.5, math.NaN(), negZero, math.Inf(-1)}),
		data.NewFloatColumn("empty", nil),
		data.NewIntColumn("small", []int64{-1, 0, 42, 7}),                                                     // varint
		data.NewIntColumn("big", []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}), // raw
		data.NewIntColumn("iempty", nil),
		data.NewStringColumn("s", []string{"", "héllo", "a\x00b"}),
		data.NewBoolColumn("b", []bool{true, false}),
		data.NewDictColumn("d", []string{"", "aa", "bb"}, []uint32{2, 0, 1, 2}),
		data.NewDictColumn("d16", wide, wideCodes),
		data.NewStringColumn("de", []string{"x", "y", "x"}).DictEncoded(),
		data.NewDictColumn("dempty", []string{}, nil),
	}
}

// sameColumn reports whether two columns are equal in identity,
// representation and every value, floats bit for bit.
func sameColumn(a, b *data.Column) bool {
	if a.ID != b.ID || a.Name != b.Name || a.Type != b.Type || a.IsDict() != b.IsDict() || a.Len() != b.Len() {
		return false
	}
	if a.IsDict() {
		for i := range a.Codes {
			if a.Codes[i] != b.Codes[i] {
				return false
			}
		}
		if len(a.Dict) != len(b.Dict) {
			return false
		}
		for i := range a.Dict {
			if a.Dict[i] != b.Dict[i] {
				return false
			}
		}
		return true
	}
	for r := 0; r < a.Len(); r++ {
		switch a.Type {
		case data.Float64:
			if math.Float64bits(a.Floats[r]) != math.Float64bits(b.Floats[r]) {
				return false
			}
		case data.Int64:
			if a.Ints[r] != b.Ints[r] {
				return false
			}
		default:
			if a.StringAt(r) != b.StringAt(r) {
				return false
			}
		}
	}
	return true
}

// FuzzColumnCodec exercises the column codec three ways:
//
//  1. DecodeColumn must never panic and never accept non-canonical input: a
//     record that decodes must re-encode to exactly the input bytes.
//  2. A decoded column must re-decode to the same column.
//  3. Single-byte corruption of a valid record must be detected (the
//     checksum covers every byte, so any flip yields ErrCorrupt).
//
// The committed seed corpus (testdata/fuzz/FuzzColumnCodec) holds version-1
// records of every dtype, written before version 2, and malformed inputs:
// all of it is input DecodeColumn and ValidateColumn refuse. The seeds added
// here are version-2 records of every mode. `go test` replays both on every
// run, `go test -fuzz=FuzzColumnCodec` explores beyond them.
func FuzzColumnCodec(f *testing.F) {
	for _, c := range modeColumns() {
		enc, err := EncodeColumn(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, uint16(0))
	}
	f.Add([]byte(colMagic), uint16(3))
	f.Add([]byte("CTC1\x02\x00\x00\x00\x00\x00\x00\x00\x00"), uint16(7))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, b []byte, flip uint16) {
		c, err := DecodeColumn(b)
		if err != nil {
			if c != nil {
				t.Fatal("decode returned both column and error")
			}
			return
		}
		re, err := EncodeColumn(c)
		if err != nil {
			t.Fatalf("decoded column failed to encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("non-canonical accept: %d in, %d out", len(b), len(re))
		}
		c2, err := DecodeColumn(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameColumn(c, c2) {
			t.Fatal("round trip changed the column")
		}
		bad := append([]byte(nil), b...)
		bad[int(flip)%len(bad)] ^= byte(flip>>8) | 1 // nonzero mask
		if _, err := DecodeColumn(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("single-byte corruption at %d undetected", int(flip)%len(bad))
		}
	})
}

// FuzzValidateColumn: ValidateColumn accepts exactly what DecodeColumn
// accepts. When both accept, the record reports the decoded column's lineage
// ID, name, dtype, rows and SizeBytes, the column passes Column.Validate,
// the record is the input itself, the record EncodeColumn writes for that
// column, and it reports the same with its ID and name known. Seeded with every golden column record and
// FuzzColumnCodec's corpus, its committed files included.
func FuzzValidateColumn(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "ctc2-*.bin"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden column records (%v)", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range modeColumns() {
		enc, err := EncodeColumn(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(colMagic))
	f.Add([]byte("CTC1\x02\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzColumnCodec", "*"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no FuzzColumnCodec corpus (%v)", err)
	}
	for _, path := range corpus {
		f.Add(corpusBytes(f, path))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		r, verr := ValidateColumn(b, nil)
		c, derr := DecodeColumn(b)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("ValidateColumn: %v; DecodeColumn: %v", verr, derr)
		}
		if derr != nil {
			if !errors.Is(verr, ErrCorrupt) {
				t.Fatalf("refused without ErrCorrupt: %v", verr)
			}
			return
		}
		if r.ID != c.ID || r.Name != c.Name || r.Type != c.Type || r.Rows != c.Len() || r.Size != c.SizeBytes() {
			t.Fatalf("reported %+v, decoded %q %q %s×%d of %d bytes", r.ColumnInfo, c.ID, c.Name, c.Type, c.Len(), c.SizeBytes())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("a decoded column fails Validate: %v", err)
		}
		want, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Bytes(), want) || &r.Bytes()[0] != &b[0] {
			t.Fatal("the record is not the input itself")
		}
		held := func(id, name []byte) (string, string, bool) {
			return c.ID, c.Name, string(id) == c.ID && string(name) == c.Name
		}
		if k, err := ValidateColumn(b, held); err != nil || k.ColumnInfo != r.ColumnInfo {
			t.Fatalf("with its own ID and name known: %+v (%v), want %+v", k.ColumnInfo, err, r.ColumnInfo)
		}
	})
}

// corpusBytes reads the []byte argument of a committed corpus file of
// FuzzColumnCodec ("go test fuzz v1", a []byte line, a uint16 line).
func corpusBytes(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return []byte(s)
		}
	}
	t.Fatalf("%s holds no []byte argument", path)
	return nil
}
