package tier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/rec"
)

func TestColumnCodecRoundTrip(t *testing.T) {
	for _, c := range modeColumns() {
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatalf("encode %s: %v", c.Name, err)
		}
		got, err := DecodeColumn(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", c.Name, err)
		}
		if !sameColumn(got, c) {
			t.Fatalf("%s: decoded column differs", c.Name)
		}
		// Canonical: re-encoding the decoded column is byte-identical.
		re, err := EncodeColumn(got)
		if err != nil {
			t.Fatalf("re-encode %s: %v", c.Name, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%s: encoding not canonical", c.Name)
		}
	}
}

// payloadAt is the offset of a record's payload: after the magic, dtype, ID,
// name and row count.
func payloadAt(c *data.Column) int { return len(colMagic) + 1 + 2 + len(c.ID) + 2 + len(c.Name) + 4 }

// TestColumnCodecPicksTheSmallestMode: each numeric column is written in the
// mode its values select, and no mode it could take is smaller.
func TestColumnCodecPicksTheSmallestMode(t *testing.T) {
	want := map[string]byte{
		"onehot": modeVarint, "counts": modeVarint, "few": modeDict8, "many": modeDict16,
		"distinct": modeRaw, "specials": modeRaw, "empty": modeRaw,
		"small": modeVarint, "big": modeRaw, "iempty": modeRaw,
	}
	for _, c := range modeColumns() {
		mode, ok := want[c.Name]
		if !ok {
			continue
		}
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc[payloadAt(c)]; got != mode {
			t.Errorf("%s: mode %d, want %d", c.Name, got, mode)
		}
		if raw := payloadAt(c) + 1 + 8*c.Len() + 4; len(enc) > raw {
			t.Errorf("%s: %d bytes, raw would be %d", c.Name, len(enc), raw)
		}
	}
}

// record builds a version-2 record around a payload, checksum included, so
// that only the structural checks can refuse it.
func record(dtype data.DType, rows int, payload []byte) []byte {
	b := []byte(colMagic)
	b = append(b, byte(dtype))
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, 'x')
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	b = append(b, payload...)
	return checksummed(b)
}

func floatBytes(vals ...float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestColumnCodecRefusesNonCanonical: a record whose checksum holds but
// which the encoder would not have written is corrupt — so whatever decodes
// re-encodes to the same bytes.
func TestColumnCodecRefusesNonCanonical(t *testing.T) {
	alternating := bytes.Repeat([]byte{0, 1}, 8) // 16 rows of two values
	dict8 := func(entries []byte, codes []byte) []byte {
		return append(append([]byte{modeDict8, byte(len(entries)/8 - 1)}, entries...), codes...)
	}
	canonical := record(data.Float64, 16, dict8(floatBytes(0.5, 1.5), alternating))
	c, err := DecodeColumn(canonical)
	if err != nil {
		t.Fatalf("the canonical dictionary record: %v", err)
	}
	if enc, _ := EncodeColumn(c); !bytes.Equal(enc, canonical) {
		t.Fatal("the test's canonical dictionary record is not what EncodeColumn writes")
	}
	for name, rec := range map[string][]byte{
		"raw floats that are integers": record(data.Float64, 2, append([]byte{modeRaw}, floatBytes(1, 2)...)),
		"varint not in shortest form":  record(data.Float64, 1, []byte{modeVarint, 0x82, 0x00}),
		"varint that is not a float":   record(data.Float64, 1, binary.AppendUvarint([]byte{modeVarint}, rec.Zigzag(1<<53+1))),
		"dictionary out of order":      record(data.Float64, 16, dict8(floatBytes(0.5, 1.5), bytes.Repeat([]byte{1, 0}, 8))),
		"dictionary entry repeated":    record(data.Float64, 16, dict8(floatBytes(0.5, 0.5, 1.5), bytes.Repeat([]byte{0, 1, 2, 0}, 4))),
		"dictionary entry unused":      record(data.Float64, 16, dict8(floatBytes(0.5, 1.5, 2.5), alternating)),
		"dictionary code out of range": record(data.Float64, 16, dict8(floatBytes(0.5), alternating)),
		"dict16 where dict8 is smaller": record(data.Float64, 16, append(append([]byte{modeDict16, 1, 0}, floatBytes(0.5, 1.5)...),
			bytes.Repeat([]byte{0, 0, 1, 0}, 8)...)),
		"raw ints that are small":    record(data.Int64, 1, binary.LittleEndian.AppendUint64([]byte{modeRaw}, 3)),
		"int varint longer than raw": record(data.Int64, 1, binary.AppendUvarint([]byte{modeVarint}, rec.Zigzag(math.MinInt64))),
		"unknown float mode":         record(data.Float64, 0, []byte{9}),
		"string length past the end": record(data.String, 1, []byte{5, 'a'}),
	} {
		if _, err := DecodeColumn(rec); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded (err=%v)", name, err)
		}
	}
}

func TestColumnCodecDict(t *testing.T) {
	c := data.NewDictColumn("d", []string{"", "north", "south"}, []uint32{1, 2, 0, 1, 1})
	enc, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumn(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Representation survives the disk round trip: the decoded column is
	// still dictionary-encoded, with identical dictionary and codes.
	if !got.IsDict() || !sameColumn(got, c) {
		t.Fatal("decoded column lost its dictionary encoding or its codes")
	}

	// Out-of-bounds codes are rejected on encode...
	bad := data.NewDictColumn("bad", []string{"a"}, []uint32{1})
	if _, err := EncodeColumn(bad); err == nil {
		t.Fatal("encode accepted out-of-bounds code")
	}
	// ...and on decode: corrupt the last code (one byte, for a 3-entry
	// dictionary) in place and refresh the CRC so only the structural check
	// can catch it.
	forged := append([]byte(nil), enc[:len(enc)-4]...)
	forged[len(forged)-1] = 99
	forged = checksummed(forged)
	if _, err := DecodeColumn(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode accepted out-of-bounds code (err=%v)", err)
	}

	// The dict flag is only valid on String; a forged dict-Float64 dtype
	// must be rejected even with a valid checksum.
	forged = append([]byte(nil), enc[:len(enc)-4]...)
	forged[len(colMagic)] = dictDType | byte(data.Float64)
	forged = checksummed(forged)
	if _, err := DecodeColumn(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode accepted dict flag on float dtype (err=%v)", err)
	}

	// Codes take the narrowest width that holds the dictionary.
	for _, k := range []int{1, 256, 257, 1 << 16, 1<<16 + 1} {
		dict := make([]string, k)
		for i := range dict {
			dict[i] = strconv.Itoa(i)
		}
		c := data.NewDictColumn("w", dict, []uint32{uint32(k - 1), 0})
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		codes := len(enc) - 4 - payloadAt(c) - rec.UvarintLen(uint64(k)) - stringsLen(dict)
		if got, err := DecodeColumn(enc); err != nil || !sameColumn(got, c) || codes != 2*codeWidth(k) {
			t.Errorf("%d entries: %d code bytes for 2 rows, round trip %v", k, codes, err)
		}
	}
}

// TestColumnCodecRefusesRepeatedDictEntry: a string dictionary whose entry
// repeats would give one string two codes, and the key kernels take equal
// codes for equal strings, so neither version decodes it.
func TestColumnCodecRefusesRepeatedDictEntry(t *testing.T) {
	c := data.NewDictColumn("d", []string{"x", "y"}, []uint32{0, 1, 0})
	enc, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	// The record's only 'y' is the second entry (IDs are hex): make it "x".
	v2 := append([]byte(nil), enc[:len(enc)-4]...)
	v2[bytes.IndexByte(v2, 'y')] = 'x'
	v2 = checksummed(v2)

	v1 := []byte(colMagicV1)
	v1 = append(v1, dictDType|byte(data.String))
	v1 = binary.LittleEndian.AppendUint16(v1, 0)
	v1 = binary.LittleEndian.AppendUint16(v1, 1)
	v1 = append(v1, 'd')
	v1 = binary.LittleEndian.AppendUint32(v1, 3)
	v1 = binary.LittleEndian.AppendUint32(v1, 2)
	for _, s := range []string{"x", "x"} {
		v1 = append(binary.LittleEndian.AppendUint32(v1, uint32(len(s))), s...)
	}
	for _, code := range []uint32{0, 1, 0} {
		v1 = binary.LittleEndian.AppendUint32(v1, code)
	}
	v1 = checksummed(v1)
	// The same record with distinct entries decodes: only the repeat is
	// refused.
	ok := append([]byte(nil), v1[:len(v1)-4]...)
	ok[bytes.LastIndexByte(ok, 'x')] = 'y'
	if got, err := DecodeColumn(checksummed(ok)); err != nil || !sameColumn(got, &data.Column{Name: "d", Type: data.String, Dict: []string{"x", "y"}, Codes: []uint32{0, 1, 0}}) {
		t.Fatalf("the version-1 record with distinct entries: %v", err)
	}

	for name, b := range map[string][]byte{"CTC2": v2, "CTC1": v1} {
		if _, err := DecodeColumn(b); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `"x" repeats`) {
			t.Errorf("%s: decoding a repeated entry: err=%v, want ErrCorrupt naming \"x\"", name, err)
		}
	}
}

func TestColumnCodecDetectsCorruption(t *testing.T) {
	c := data.NewFloatColumn("f", []float64{1, 2, 3, 4, 5})
	enc, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must be detected.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x41
		if _, err := DecodeColumn(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d not detected (err=%v)", i, err)
		}
	}
	// Truncation at every length must be detected.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeColumn(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes not detected (err=%v)", n, err)
		}
	}
	// Trailing garbage must be detected.
	if _, err := DecodeColumn(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte not detected (err=%v)", err)
	}
}

// TestCommittedCTC1SeedsStillDecode reads the version-1 records of the
// committed fuzz corpus, written before version 2: the well-formed ones
// decode, and their version-2 record decodes to the same column.
func TestCommittedCTC1SeedsStillDecode(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzColumnCodec")
	for name, wellFormed := range map[string]bool{
		"seed-bool": true, "seed-empty": true, "seed-float": true, "seed-int": true, "seed-string": true,
		"seed-bad-dtype": false, "seed-magic-only": false, "seed-empty-input": false,
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: a header line, then one Go literal per
		// argument; the first is []byte("...").
		lines := strings.Split(string(raw), "\n")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := DecodeColumn([]byte(b))
		if (err == nil) != wellFormed {
			t.Errorf("%s: decode error %v, want well-formed %v", name, err, wellFormed)
			continue
		}
		if !wellFormed {
			continue
		}
		if !strings.HasPrefix(b, colMagicV1) {
			t.Errorf("%s is not a version-1 record", name)
		}
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeColumn(enc); err != nil || !sameColumn(got, c) {
			t.Errorf("%s: the version-2 record does not decode to the column (%v)", name, err)
		}
	}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	man := Manifest{ColIDs: []string{"c1", "c2"}, Names: []string{"a", "b"}}
	enc, err := encodeManifest("vertex/with weird:chars", man)
	if err != nil {
		t.Fatal(err)
	}
	vid, got, err := decodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if vid != "vertex/with weird:chars" || len(got.ColIDs) != 2 ||
		got.ColIDs[1] != "c2" || got.Names[0] != "a" {
		t.Fatalf("round trip mismatch: %q %+v", vid, got)
	}
	// The file is the wire's manifest after the vertex ID.
	w := rec.NewWriter(nil)
	WriteManifest(&w, man.ColIDs, man.Names)
	if !bytes.HasPrefix(enc, []byte(frameMagic)) || !bytes.HasSuffix(enc[:len(enc)-rec.SealLen], w.Bytes()) {
		t.Fatalf("a %s file is not the wire's manifest", frameMagic)
	}
	for _, frame := range [][]byte{enc, ctm1Frame(t)} {
		for i := range frame {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0xFF
			if _, _, err := decodeManifest(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s flip at %d not detected", frame[:4], i)
			}
		}
	}
}

// ctm1Frame is the version-1 manifest of the committed store-ctc1 directory.
func ctm1Frame(tb testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "store-ctc1", "frames", "3bfc269594ef649228e9a74bab00f042efc91d5a.mf"))
	if err != nil {
		tb.Fatal(err)
	}
	if string(b[:4]) != frameMagicV1 {
		tb.Fatalf("store-ctc1's manifest is %q", b[:4])
	}
	return b
}

// FuzzManifest throws arbitrary bytes at the manifest decoder, seeded with
// the version-1 manifest of store-ctc1 and version-2 manifests. It must never
// panic; it refuses an entry count the bytes left cannot hold before making
// anything for it, so what it accepts holds no more entries than the frame
// has bytes for; and a version-2 frame it accepts re-encodes to exactly its
// bytes.
func FuzzManifest(f *testing.F) {
	f.Add(ctm1Frame(f))
	for _, m := range []struct {
		vid string
		man Manifest
	}{
		{"v", Manifest{}},
		{"vertex/with weird:chars", Manifest{ColIDs: []string{"c1", "c2"}, Names: []string{"a", ""}}},
		{data.SourceID("", "v"), Manifest{ColIDs: []string{data.SourceID("", "x"), "0123456789ABCDEF0123456789ABCDEF"},
			Names: []string{"x", data.SourceID("", "y")}}},
	} {
		enc, err := encodeManifest(m.vid, m.man)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		vid, man, err := decodeManifest(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("an error not wrapping ErrCorrupt: %v", err)
			}
			return
		}
		if len(man.ColIDs) != len(man.Names) || 2*len(man.ColIDs) > len(b) {
			t.Fatalf("%d column ids and %d names from %d bytes", len(man.ColIDs), len(man.Names), len(b))
		}
		if string(b[:4]) != frameMagic {
			return
		}
		if re, err := encodeManifest(vid, man); err != nil || !bytes.Equal(re, b) {
			t.Fatalf("non-canonical accept: %d bytes in, %d out (%v)", len(b), len(re), err)
		}
	})
}

// checksummed ends b, a record's magic and body, with their checksum, as
// the encoder seals a record.
func checksummed(b []byte) []byte {
	w := rec.Frame(string(b[:4]), len(b))
	w.Raw(b[4:])
	out, _ := w.Seal()
	return out
}
