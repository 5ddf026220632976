// Package rec is the byte toolkit every record of the repository is built
// on: the column records, blob files and manifests of the disk tier, the
// messages of the wire protocol, and persist's snapshot envelope. It holds
// each primitive once — a Reader whose first failure sticks, a Writer that
// appends or only counts, the seal that frames a record with a magic and a
// CRC-32C, and the atomic file write — and imports nothing of the
// repository.
//
// The primitives, as the record grammars of internal/tier and
// internal/remote name them:
//
//	u8, u16, u32, u64  fixed width, little-endian
//	uvarint  encoding/binary's unsigned varint in its shortest form; a
//	         longer one is refused
//	int      uvarint(zigzag(v)): 0, −1, 1, −2 → 0, 1, 2, 3
//	float    8 bytes, the little-endian IEEE-754 bits: NaN payloads and −0
//	         survive
//	str      uvarint len, len bytes
//	str16    u16 len, len bytes
//	id       uvarint 0, 16 bytes         a string of 32 lowercase hex digits
//	         | uvarint len+1, len bytes  any other string
//	count    uvarint n, refused when the bytes left cannot hold n items
//	list     uvarint 0 (a nil list) | uvarint n+1, n a count
//
// Every form is canonical: a value has one encoding, and the Reader refuses
// any other, so a record that reads re-encodes to the same bytes.
package rec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ErrCorrupt marks bytes a Reader or Open refused: truncated, malformed, not
// in canonical form, or failing their checksum.
var ErrCorrupt = errors.New("corrupt record")

// SealLen is the size of the checksum that ends a sealed record.
const SealLen = 4

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame starts a sealed record: a Writer of a buffer that holds magic, with
// room for size bytes of body — what the body takes, or a guess at it — and
// the checksum. Seal ends it.
func Frame(magic string, size int) Writer {
	return Writer{b: append(make([]byte, 0, len(magic)+size+SealLen), magic...)}
}

// Seal ends a record that Frame started with the CRC-32C of its magic and
// body, and returns it, or the first failure.
func (w *Writer) Seal() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli)), nil
}

// Open checks the frame Frame and Seal write: b starts with one of magics and ends
// with the checksum of all that precedes it. It returns the magic and the
// body between them, or an error wrapping ErrCorrupt.
func Open(b []byte, magics ...string) (string, []byte, error) {
	for _, m := range magics {
		if len(b) < len(m)+SealLen || string(b[:len(m)]) != m {
			continue
		}
		body := b[:len(b)-SealLen]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(body):]) {
			return "", nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, m)
		}
		return m, body[len(m):], nil
	}
	return "", nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
}

// WriteFile writes b to path through a temporary file in the same
// directory, synced before it is renamed over path, so a crash never leaves
// a torn file under the final name.
func WriteFile(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Zigzag maps an int64 onto a uint64 whose varint is short when v is near 0.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UvarintLen is the number of bytes the uvarint of v takes.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// isHexID reports whether s is 32 lowercase hex digits, the form of every ID
// the repository mints.
func isHexID[T string | []byte](s T) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Writer writes a record: it appends to a buffer, or, in the first pass of
// Exact, only counts the bytes it would append. The first failure sticks.
type Writer struct {
	b     []byte
	n     int // the bytes counted, when counting
	count bool
	err   error
}

// NewWriter returns a Writer that appends to b.
func NewWriter(b []byte) Writer { return Writer{b: b} }

// Exact runs write twice: once counting its bytes, once into a buffer of
// exactly that length, which it returns.
func Exact(write func(*Writer)) ([]byte, error) { return ExactIn(nil, write) }

// ExactIn is Exact writing into buf when buf has the capacity, and into a
// new buffer of exactly the length otherwise.
func ExactIn(buf []byte, write func(*Writer)) ([]byte, error) {
	c := Writer{count: true}
	write(&c)
	if c.err != nil {
		return nil, c.err
	}
	if cap(buf) < c.n {
		buf = make([]byte, 0, c.n)
	}
	w := Writer{b: buf[:0]}
	write(&w)
	return w.b, w.err
}

// Fail records a failure unless one is recorded already.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure.
func (w *Writer) Err() error { return w.err }

// Bytes returns the buffer written to.
func (w *Writer) Bytes() []byte { return w.b }

// Raw writes p as it is.
func (w *Writer) Raw(p []byte) {
	if w.count {
		w.n += len(p)
		return
	}
	w.b = append(w.b, p...)
}

func (w *Writer) U8(v byte) {
	if w.count {
		w.n++
		return
	}
	w.b = append(w.b, v)
}

func (w *Writer) U16(v uint16) {
	if w.count {
		w.n += 2
		return
	}
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
}

func (w *Writer) U32(v uint32) {
	if w.count {
		w.n += 4
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *Writer) U64(v uint64) {
	if w.count {
		w.n += 8
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *Writer) Uvarint(v uint64) {
	if w.count {
		w.n += UvarintLen(v)
		return
	}
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *Writer) Int(v int64) { w.Uvarint(Zigzag(v)) }

// Length writes a size or a duration, which must not be negative.
func (w *Writer) Length(what string, v int64) {
	if v < 0 {
		w.Fail("%s %d is negative", what, v)
	}
	w.Uvarint(uint64(v))
}

func (w *Writer) Float(f float64) { w.U64(math.Float64bits(f)) }

// Floats writes the bits of every value, and no length.
func (w *Writer) Floats(vals []float64) {
	if w.count {
		w.n += 8 * len(vals)
		return
	}
	at := len(w.b)
	w.b = slices.Grow(w.b, 8*len(vals))[:at+8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w.b[at+8*i:], math.Float64bits(v))
	}
}

func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.str(s)
}

func (w *Writer) str(s string) {
	if w.count {
		w.n += len(s)
		return
	}
	w.b = append(w.b, s...)
}

// Str16 writes a string of at most 65 535 bytes after its u16 length.
func (w *Writer) Str16(s string) {
	if len(s) > math.MaxUint16 {
		w.Fail("string of %d bytes for a u16 length", len(s))
	}
	w.U16(uint16(len(s)))
	w.str(s)
}

// ID writes a string of 32 lowercase hex digits as the 16 bytes they spell,
// any other string as itself.
func (w *Writer) ID(s string) {
	if !isHexID(s) {
		w.Uvarint(uint64(len(s)) + 1)
		w.str(s)
		return
	}
	if w.count {
		w.n += 17
		return
	}
	var p [17]byte // tag 0, then the 16 bytes
	hex.Decode(p[1:], []byte(s))
	w.Raw(p[:])
}

// List writes the length of a list of n items, or of a nil one.
func (w *Writer) List(n int, isNil bool) {
	if isNil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(n) + 1)
}

// Reader reads a record. The first failure sticks: Err returns it, and every
// read after it returns a zero value.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records a failure wrapping ErrCorrupt, unless one is recorded
// already, and stops the reader.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(fmt.Sprintf(format, args...))
	}
	r.off = len(r.b)
}

// Nest fails the reader with err, the failure of a record nested in its own,
// in the context format gives: the message names ErrCorrupt once, however
// deep the nesting.
func (r *Reader) Nest(err error, format string, args ...any) {
	if r.err == nil {
		r.err = Nested(err, format, args...)
	}
	r.off = len(r.b)
}

// Nested is the failure Nest records: err, the failure of a nested record,
// in the context format gives, naming ErrCorrupt once.
func Nested(err error, format string, args ...any) error {
	return corrupt(fmt.Sprintf(format, args...) + ": " + strings.TrimPrefix(err.Error(), ErrCorrupt.Error()+": "))
}

// corrupt is a failure a Reader recorded. Refusing hostile input costs what
// formatting its message does and no more.
type corrupt string

func (c corrupt) Error() string { return ErrCorrupt.Error() + ": " + string(c) }
func (corrupt) Unwrap() error   { return ErrCorrupt }

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Left returns the number of bytes not read yet.
func (r *Reader) Left() int { return len(r.b) - r.off }

// Done returns the first failure, or a failure if bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Fail("%d bytes after the record", len(r.b)-r.off)
	}
	return r.err
}

// Depth refuses a value nested depth levels deep when that is more than
// max: the bound on the recursion hostile input can ask for.
func (r *Reader) Depth(depth, max int) bool {
	if depth > max {
		r.Fail("nested deeper than %d", max)
		return false
	}
	return true
}

// Bytes returns the next n bytes; they alias the record.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > r.Left() {
		if r.err == nil {
			r.Fail("%d bytes wanted, %d left", n, r.Left())
		}
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

func (r *Reader) U8() byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.Fail("truncated")
	return 0
}

func (r *Reader) U16() uint16 {
	if p := r.Bytes(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.Bytes(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Bytes(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads a uvarint in its shortest form and refuses any other.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || r.b[r.off+n-1] == 0 { // a last byte of 0 adds nothing
		r.Fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Int() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Length reads a size or a duration.
func (r *Reader) Length() int64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.Fail("length %d out of range", v)
		return 0
	}
	return int64(v)
}

func (r *Reader) Float() float64 { return math.Float64frombits(r.U64()) }

// Count reads the length of a list whose items take at least min bytes
// each, and refuses one the bytes left cannot hold, before anything is made
// for it.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(r.Left()/min) {
		r.Fail("%d items in %d bytes", n, r.Left())
		return 0
	}
	return int(n)
}

// List reads the length of a list as List writes it, checked as Count
// checks it: -1 for a nil list.
func (r *Reader) List(min int) int {
	v := r.Uvarint()
	switch {
	case v == 0:
		return -1
	case v-1 > uint64(r.Left()/min):
		r.Fail("%d items in %d bytes", v-1, r.Left())
		return -1
	}
	return int(v - 1)
}

func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a str without copying it: the bytes alias the record.
func (r *Reader) StrBytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Left()) {
		r.Fail("string of %d bytes in %d", n, r.Left())
		return nil
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off : r.off]
}

func (r *Reader) Str16() string { return string(r.Bytes(int(r.U16()))) }

// ID reads what ID writes, and refuses 32 hex digits written out.
func (r *Reader) ID() string {
	tag := r.Uvarint()
	if tag == 0 {
		p := r.Bytes(16)
		if p == nil {
			return ""
		}
		var h [32]byte
		hex.Encode(h[:], p)
		return string(h[:])
	}
	if tag-1 > uint64(r.Left()) {
		r.Fail("string of %d bytes in %d", tag-1, r.Left())
		return ""
	}
	p := r.Bytes(int(tag - 1))
	if isHexID(p) {
		r.Fail("an ID written out")
		return ""
	}
	return string(p)
}
