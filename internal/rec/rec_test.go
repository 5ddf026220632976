package rec

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const hexID = "0123456789abcdef0123456789abcdef"

// write writes one value of every primitive.
func write(w *Writer) {
	w.U8(7)
	w.U16(0xbeef)
	w.U32(1 << 31)
	w.U64(math.MaxUint64)
	w.Uvarint(1 << 40)
	w.Int(-3)
	w.Length("size", 300)
	w.Float(math.Copysign(0, -1))
	w.Floats([]float64{1.5, math.Inf(-1)})
	w.Str("héllo")
	w.Str16("name")
	w.ID(hexID)
	w.ID("not an id")
	w.List(0, true)
	w.List(0, false)
}

// TestPrimitivesRoundTrip: every primitive reads back what was written, and
// the counting pass of Exact counts exactly the bytes the second pass writes.
func TestPrimitivesRoundTrip(t *testing.T) {
	b, err := Exact(write)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b) != len(b) {
		t.Errorf("%d bytes in a buffer of %d", len(b), cap(b))
	}
	w := NewWriter(nil)
	write(&w)
	if !bytes.Equal(w.Bytes(), b) {
		t.Fatal("the sized and the unsized encodings differ")
	}
	r := NewReader(b)
	if r.U8() != 7 || r.U16() != 0xbeef || r.U32() != 1<<31 || r.U64() != math.MaxUint64 ||
		r.Uvarint() != 1<<40 || r.Int() != -3 || r.Length() != 300 ||
		math.Float64bits(r.Float()) != math.Float64bits(math.Copysign(0, -1)) ||
		r.Float() != 1.5 || !math.IsInf(r.Float(), -1) || r.Str() != "héllo" || r.Str16() != "name" ||
		r.ID() != hexID || r.ID() != "not an id" || r.List(1) != -1 || r.List(1) != 0 {
		t.Fatalf("read back differently (%v)", r.Err())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if n := 17; len(b) != 1+2+4+8+6+1+2+8+16+7+6+n+10+1+1 {
		t.Errorf("%d bytes; an ID of 32 hex digits does not take %d", len(b), n)
	}
}

// TestReaderRefusesWhatIsNotCanonical: a varint longer than its shortest
// form, an ID written out, a count the bytes left cannot hold, a value nested
// too deep, bytes after the record — each fails, wrapping ErrCorrupt, and
// the failure sticks.
func TestReaderRefusesWhatIsNotCanonical(t *testing.T) {
	written := NewWriter(nil)
	written.Uvarint(33)
	written.Raw([]byte(hexID))
	for name, read := range map[string]func(r *Reader){
		"an overlong varint":      func(r *Reader) { readerOf(r, []byte{0x80, 0x00}).Uvarint() },
		"an ID written out":       func(r *Reader) { readerOf(r, written.Bytes()).ID() },
		"a count past the bytes":  func(r *Reader) { readerOf(r, []byte{3, 0, 0}).Count(2) },
		"a list past the bytes":   func(r *Reader) { readerOf(r, []byte{4, 0, 0}).List(1) },
		"a string past the bytes": func(r *Reader) { readerOf(r, []byte{2, 'a'}).Str() },
		"a truncated float":       func(r *Reader) { readerOf(r, []byte{1, 2, 3}).Float() },
		"a value nested too deep": func(r *Reader) { readerOf(r, nil).Depth(3, 2) },
		"a byte after the record": func(r *Reader) { readerOf(r, []byte{1}) },
		"a length past an int64": func(r *Reader) {
			readerOf(r, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}).Length()
		},
		"a varint past its 10 bytes": func(r *Reader) {
			readerOf(r, bytes.Repeat([]byte{0xff}, 11)).Uvarint()
		},
	} {
		var r Reader
		read(&r)
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
		if r.Uvarint() != 0 || r.Err() == nil {
			t.Errorf("%s: the failure did not stick", name)
		}
	}
}

// readerOf points r at b and returns it.
func readerOf(r *Reader, b []byte) *Reader {
	*r = NewReader(b)
	return r
}

// TestSealOpen: a sealed record opens to its magic and body, and a flip of
// any bit, a truncation or another magic is refused.
func TestSealOpen(t *testing.T) {
	w := Frame("TST1", 3)
	w.Raw([]byte("abc"))
	b, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if magic, body, err := Open(b, "TST0", "TST1"); err != nil || magic != "TST1" || string(body) != "abc" {
		t.Fatalf("opened %q %q (%v)", magic, body, err)
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(b)
			bad[i] ^= 1 << bit
			if _, _, err := Open(bad, "TST1"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip of bit %d of byte %d: %v", bit, i, err)
			}
		}
	}
	for n := range b {
		if _, _, err := Open(b[:n], "TST1"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	w = Frame("TST1", 0)
	if w.Length("size", -1); w.Err() == nil {
		t.Error("sealed a negative length")
	}
}

// TestWriteFile: the file holds the bytes, and no temporary file is left.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, want := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read %q (%v), want %q", got, err, want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files in the directory, want 1", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Error("wrote into a directory that does not exist")
	}
}
