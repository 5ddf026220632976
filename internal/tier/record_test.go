package tier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/data"
	"repro/internal/rec"
)

// TestValidateColumnReportsTheDecodedColumn: for a record of every mode and
// code width, ValidateColumn returns the input itself and reports the
// lineage ID, name, dtype, rows and size of the column DecodeColumn builds.
func TestValidateColumnReportsTheDecodedColumn(t *testing.T) {
	for _, c := range goldenColumns() {
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ValidateColumn(enc, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := ColumnInfo{ID: c.ID, Name: c.Name, Type: c.Type, Rows: c.Len(), Size: c.SizeBytes()}
		if r.ColumnInfo != want || &r.Bytes()[0] != &enc[0] || len(r.Bytes()) != len(enc) {
			t.Errorf("%s: reported %+v, want %+v of the input itself", c.Name, r.ColumnInfo, want)
		}
	}
}

// TestValidateColumnTakesTheKnownStrings: with a Known, the record's ID
// and name are the strings it returns for their bytes, not copies of them,
// and a record whose ID and name it does not hold is refused — a record
// under another name than the one known for its ID included.
func TestValidateColumnTakesTheKnownStrings(t *testing.T) {
	c := data.NewFloatColumn("x", []float64{1, 2})
	enc, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	id, name := strings.Clone(c.ID), strings.Clone(c.Name)
	held := func(i, n []byte) (string, string, bool) {
		return id, name, string(i) == id && string(n) == name
	}
	r, err := ValidateColumn(enc, held)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(r.ID) != unsafe.StringData(id) || unsafe.StringData(r.Name) != unsafe.StringData(name) {
		t.Error("the record's ID and name are not the known strings")
	}
	renamed := c.WithID(c.ID)
	renamed.Name = "y"
	other, err := EncodeColumn(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateColumn(other, held); err == nil || !strings.Contains(err.Error(), `"y"`) {
		t.Errorf("a record of a name not known for its ID: %v, want refused naming it", err)
	}
}

// TestValidateColumnRefusesVersion1: a version-1 record is refused as
// DecodeColumn refuses it, however sound its frame.
func TestValidateColumnRefusesVersion1(t *testing.T) {
	for _, name := range []string{"seed-float", "seed-int", "seed-string", "seed-bool"} {
		v1 := corpusBytes(t, "testdata/fuzz/FuzzColumnCodec/"+name)
		if _, _, err := rec.Open(v1, colMagicV1); err != nil {
			t.Fatalf("%s is no sound version-1 record: %v", name, err)
		}
		_, verr := ValidateColumn(v1, nil)
		_, derr := DecodeColumn(v1)
		if !errors.Is(verr, ErrCorrupt) || !errors.Is(derr, ErrCorrupt) {
			t.Errorf("%s: ValidateColumn %v, DecodeColumn %v; want both refused", name, verr, derr)
		}
	}
}

// dictRecord writes a record of a string dictionary column holding entries
// as they are given, one row per entry.
func dictRecord(t *testing.T, entries []string) []byte {
	t.Helper()
	w := rec.Frame(colMagic, 64)
	w.U8(dictDType | byte(data.String))
	w.Str16("id")
	w.Str16("d")
	w.U32(uint32(len(entries)))
	w.Uvarint(uint64(len(entries)))
	for _, s := range entries {
		w.Str(s)
	}
	for i := range entries {
		w.U8(byte(i))
	}
	b, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestValidateColumnRefusesARepeatedEntryAsDecodeDoes: a repeated string
// dictionary entry, or one out of order, is refused by both readers with
// one text, naming the first entry that does not sort after the one before
// it.
func TestValidateColumnRefusesARepeatedEntryAsDecodeDoes(t *testing.T) {
	for dict, want := range map[string]string{
		"a b b c": `"b" does not sort after "b"`,
		"y x y x": `"x" does not sort after "y"`,
		"b a a":   `"a" does not sort after "b"`,
	} {
		b := dictRecord(t, strings.Fields(dict))
		_, verr := ValidateColumn(b, nil)
		_, derr := DecodeColumn(b)
		if !errors.Is(verr, ErrCorrupt) || derr == nil || verr.Error() != derr.Error() || !strings.Contains(verr.Error(), want) {
			t.Errorf("%q: ValidateColumn %v, DecodeColumn %v; want both naming %s", dict, verr, derr, want)
		}
	}
}

// TestReadersRefuseAnUnsortedDictionary: a string dictionary of distinct
// entries that do not strictly ascend, compared bytewise, is refused by
// both readers with one text naming both entries, and Column.Validate, the
// fuzz oracle, refuses the column it holds; the same entries in order read.
func TestReadersRefuseAnUnsortedDictionary(t *testing.T) {
	for _, entries := range [][]string{{"b", "a"}, {"", "a", "B"}, {"a\x00", "a"}, {"x", ""}} {
		b := dictRecord(t, entries)
		_, verr := ValidateColumn(b, nil)
		_, derr := DecodeColumn(b)
		at := len(entries) - 1
		want := fmt.Sprintf("corrupt record: dictionary entry %q does not sort after %q", entries[at], entries[at-1])
		if verr == nil || derr == nil || verr.Error() != want || derr.Error() != want {
			t.Errorf("%q: ValidateColumn %v, DecodeColumn %v; want both %s", entries, verr, derr, want)
		}
		codes := make([]uint32, len(entries))
		for i := range codes {
			codes[i] = uint32(i)
		}
		if err := data.NewDictColumn("d", entries, codes).Validate(); err == nil {
			t.Errorf("%q: Column.Validate accepted the column", entries)
		}
		slices.Sort(entries)
		if _, err := DecodeColumn(dictRecord(t, entries)); err != nil {
			t.Errorf("%q in order: %v", entries, err)
		}
	}
}

// TestColumnRecordRefusesWhatCannotBeWritten: an ID or a name longer than
// EncodeColumn writes is refused by both readers, so a record that is
// admitted can always be written again (a download re-encoding a decoded
// column used to fail on one); at the limit it reads and re-encodes.
func TestColumnRecordRefusesWhatCannotBeWritten(t *testing.T) {
	record := func(id, name string) []byte {
		b := []byte(colMagic)
		b = append(b, byte(data.Float64))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(id)))
		b = append(b, id...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint32(b, 0)
		return checksummed(append(b, modeRaw))
	}
	long := strings.Repeat("i", maxMetaLen)
	for _, tc := range []struct {
		id, name string
		ok       bool
	}{{long, "n", true}, {"i", long, true}, {long + "i", "n", false}, {"i", long + "n", false}} {
		b := record(tc.id, tc.name)
		_, verr := ValidateColumn(b, nil)
		c, derr := DecodeColumn(b)
		if (verr == nil) != tc.ok || (derr == nil) != tc.ok {
			t.Errorf("id %d bytes, name %d: ValidateColumn %v, DecodeColumn %v; want accepted %v", len(tc.id), len(tc.name), verr, derr, tc.ok)
			continue
		}
		if tc.ok {
			if re, err := EncodeColumn(c); err != nil || !bytes.Equal(re, b) {
				t.Errorf("id %d bytes, name %d: re-encoded to %d bytes (%v)", len(tc.id), len(tc.name), len(re), err)
			}
		}
	}
}

// TestNamedIsTheRecordOfTheRenamedColumn: Named writes the bytes
// EncodeColumn writes for the column under the new name, and leaves a
// record already so named as it is.
func TestNamedIsTheRecordOfTheRenamedColumn(t *testing.T) {
	for _, c := range modeColumns() {
		r, err := RecordOf(c)
		if err != nil {
			t.Fatal(err)
		}
		renamed := c.WithID(c.ID)
		renamed.Name = c.Name + "_1"
		want, err := EncodeColumn(renamed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Named(renamed.Name)
		if err != nil || !bytes.Equal(got.Bytes(), want) || got.Name != renamed.Name || got.Size != r.Size {
			t.Errorf("%s: renamed record differs from the renamed column's (%v)", c.Name, err)
		}
		if same, _ := r.Named(c.Name); &same.Bytes()[0] != &r.Bytes()[0] {
			t.Errorf("%s: a record renamed to its own name was rewritten", c.Name)
		}
	}
}

// TestFrameRecordsAreWhatADownloadWrites: a frame on disk comes back as its
// manifest and the version-2 record of each distinct column, named as the
// manifest first names it — the bytes EncodeColumn writes for the frame's
// columns.
func TestFrameRecordsAreWhatADownloadWrites(t *testing.T) {
	a := data.NewFloatColumn("a", []float64{1.5, 2.5, 3.5})
	again := a.WithID(a.ID)
	again.Name = "a_1"
	b := data.NewIntColumn("b", []int64{1, 2, 3})
	d, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := putColumns(d, "held", []*data.Column{a}); err != nil {
		t.Fatal(err)
	}
	if err := putColumns(d, "v", []*data.Column{b, again, a}); err != nil {
		t.Fatal(err)
	}
	want := []*data.Column{b, again}
	man, recs, ok, err := d.FrameRecords("v")
	if !ok || err != nil || len(recs) != len(want) {
		t.Fatalf("%d records, ok %v (%v)", len(recs), ok, err)
	}
	if len(man.ColIDs) != 3 {
		t.Fatalf("manifest of %d columns", len(man.ColIDs))
	}
	for i, c := range want {
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recs[i].Bytes(), enc) || recs[i].Size != c.SizeBytes() {
			t.Errorf("record %d is not the version-2 record of %s", i, c.Name)
		}
	}
	if _, _, ok, err := d.FrameRecords("absent"); ok || err != nil {
		t.Errorf("an absent frame: ok %v, %v", ok, err)
	}
}

// TestFrameRecordsQuarantinesRuntimeCorruption: a column file corrupted
// after Open fails its checksum when a download reads it; the file is
// quarantined and the vertex dropped, as Get does.
func TestFrameRecordsQuarantinesRuntimeCorruption(t *testing.T) {
	d, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := data.NewFloatColumn("c", []float64{1, 2, 3})
	if err := putColumns(d, "v", []*data.Column{c}); err != nil {
		t.Fatal(err)
	}
	path := d.colPath(c.ID)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := d.FrameRecords("v"); !ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a corrupt column file: ok %v, %v; want ErrCorrupt", ok, err)
	}
	if d.Has("v") {
		t.Error("the vertex is still held after a corrupt read")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("the corrupt column file was not quarantined")
	}
}
