// Package tier implements the durable disk tier of the artifact storage
// subsystem (DESIGN.md "Tiered storage"). The on-disk layout is
// content-addressed at column granularity — one checksummed file per column
// lineage ID — so the cross-artifact column deduplication of §5.3 survives
// spilling: two artifacts sharing a column share one file on disk exactly as
// they share one array in memory. Models and aggregates are stored as whole
// checksummed blobs.
//
// Every file carries a CRC-32C checksum over its entire content. Torn
// writes, truncation, and bit rot are detected on read and at boot, when
// Open scans the directory, verifies every file, quarantines corrupt ones,
// and rebuilds the tier index so a restarted server comes up warm.
package tier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"

	"repro/internal/data"
)

// ErrCorrupt marks a file that failed structural validation or checksum
// verification. Callers treat such files as absent and quarantine them.
var ErrCorrupt = errors.New("tier: corrupt file")

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Column record format, version 2 (all fixed-width integers little-endian).
// It is the one byte format of a column: a file of the disk tier, and a
// column of an upload body or a download on the wire.
//
//	magic   "CTC2"                       4 bytes
//	dtype   uint8                        data.DType
//	idLen   uint16, id bytes             lineage ID
//	nameLen uint16, name bytes           column name at write time
//	rows    uint32
//	payload                              per dtype, see below
//	crc     uint32                       CRC-32C of everything above
//
// uvarint is encoding/binary's unsigned varint in its shortest form, and
// zigzag maps an int64 onto one (0, −1, 1, −2 → 0, 1, 2, 3).
//
// A Float64 or Int64 payload is a mode byte and the values in that mode:
//
//	0 raw     rows × 8 bytes: the IEEE-754 bits, or two's complement
//	1 varint  rows × uvarint(zigzag(i)); in a Float64 column every cell is
//	          an integral float and i the int64 it equals bit for bit
//	          (−0, NaN and ±Inf are not)
//	2 dict8   Float64 only: u8 k−1, k distinct 8-byte bit patterns in order
//	          of first appearance, rows × u8 code
//	3 dict16  Float64 only: u16 k−1, the same k entries, rows × u16 code
//
// The mode is a function of the values: the smallest payload among the
// modes the column can take, a tie going to the lower mode. A dictionary
// keys on bit patterns, so every NaN payload and −0 survive it.
//
// Bool is 1 byte per row (0 or 1 — anything else is rejected). String is
// uvarint length + bytes per row. A dictionary-encoded string column sets
// the high bit of the dtype byte (dictDType | String) and carries uvarint k,
// k × (uvarint length + bytes), then one code per row in the narrowest width
// that holds k−1: 1 byte up to 256 entries, 2 up to 65 536, else 4. Codes
// must index the dictionary; the dictionary itself is accepted as-is (any
// entries, any order), and consumers that rely on sortedness re-check it.
//
// The encoding is canonical: any version-2 byte string that decodes
// re-encodes to exactly the same bytes, which the fuzz test exploits. So
// the decoder refuses a mode other than the one its values select, a varint
// longer than its shortest form, and a float dictionary with a repeated or
// unused entry or out of first-appearance order.
//
// Version 1 ("CTC1") is read, never written, so a directory written before
// version 2 recovers: the same header, then Float64/Int64 as rows × 8 bytes,
// strings as uint32 length + bytes, a string dictionary as uint32 k,
// uint32-length entries and uint32 codes.
const (
	colMagic   = "CTC2"
	colMagicV1 = "CTC1"
)

// dictDType flags a dictionary-encoded payload in the dtype byte. Only
// valid combined with data.String.
const dictDType = 0x80

// maxMetaLen bounds the ID and name fields (they are hex hashes and short
// human names in practice).
const maxMetaLen = 1 << 12

// The modes of a Float64 or Int64 payload.
const (
	modeRaw byte = iota
	modeVarint
	modeDict8
	modeDict16
)

// EncodeColumn serializes a column as a version-2 record.
func EncodeColumn(c *data.Column) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("tier: nil column")
	}
	if len(c.ID) > maxMetaLen || len(c.Name) > maxMetaLen {
		return nil, fmt.Errorf("tier: column id/name too long (%d/%d bytes)", len(c.ID), len(c.Name))
	}
	rows := c.Len()
	if rows > math.MaxUint32 {
		return nil, fmt.Errorf("tier: column too long (%d rows)", rows)
	}
	isDict := c.IsDict()
	dtype := byte(c.Type)
	var plan numPlan
	var size int // payload bytes
	switch {
	case isDict:
		dtype |= dictDType
		for _, code := range c.Codes {
			if int(code) >= len(c.Dict) {
				return nil, fmt.Errorf("tier: code %d out of bounds for %d-entry dictionary", code, len(c.Dict))
			}
		}
		size = uvarintLen(uint64(len(c.Dict))) + stringsLen(c.Dict) + rows*codeWidth(len(c.Dict))
	case c.Type == data.Float64:
		plan = planFloats(c.Floats)
		defer plan.release()
		size = 1 + plan.size
	case c.Type == data.Int64:
		plan = planInts(c.Ints)
		size = 1 + plan.size
	case c.Type == data.String:
		size = stringsLen(c.Strings)
	case c.Type == data.Bool:
		size = rows
	default:
		return nil, fmt.Errorf("tier: unsupported dtype %v", c.Type)
	}
	b := make([]byte, 0, len(colMagic)+1+2+len(c.ID)+2+len(c.Name)+4+size+4)
	b = append(b, colMagic...)
	b = append(b, dtype)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.ID)))
	b = append(b, c.ID...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
	b = append(b, c.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	switch {
	case isDict:
		b = binary.AppendUvarint(b, uint64(len(c.Dict)))
		b = appendStrings(b, c.Dict)
		switch codeWidth(len(c.Dict)) {
		case 1:
			for _, code := range c.Codes {
				b = append(b, byte(code))
			}
		case 2:
			for _, code := range c.Codes {
				b = binary.LittleEndian.AppendUint16(b, uint16(code))
			}
		default:
			for _, code := range c.Codes {
				b = binary.LittleEndian.AppendUint32(b, code)
			}
		}
	case c.Type == data.Float64:
		b = appendFloats(b, c.Floats, plan)
	case c.Type == data.Int64:
		b = append(b, plan.mode)
		for _, v := range c.Ints {
			if plan.mode == modeVarint {
				b = binary.AppendUvarint(b, zigzag(v))
			} else {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
	case c.Type == data.String:
		b = appendStrings(b, c.Strings)
	case c.Type == data.Bool:
		for _, v := range c.Bools {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// appendFloats writes a Float64 payload in the mode plan chose.
func appendFloats(b []byte, vals []float64, plan numPlan) []byte {
	b = append(b, plan.mode)
	switch plan.mode {
	case modeRaw:
		out := b[len(b) : len(b)+8*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		b = b[:len(b)+len(out)]
	case modeVarint:
		for _, v := range vals {
			i, _ := floatInt(v)
			b = binary.AppendUvarint(b, zigzag(i))
		}
	case modeDict8, modeDict16:
		d := plan.dict
		if plan.mode == modeDict8 {
			b = append(b, byte(len(d.order)-1))
		} else {
			b = binary.LittleEndian.AppendUint16(b, uint16(len(d.order)-1))
		}
		for _, k := range d.order {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
		for _, code := range d.rows {
			if plan.mode == modeDict8 {
				b = append(b, byte(code))
			} else {
				b = binary.LittleEndian.AppendUint16(b, code)
			}
		}
	}
	return b
}

// numPlan is the mode a Float64 or Int64 column is written in and the size
// of its payload after the mode byte; in a dictionary mode, the numbered
// patterns.
type numPlan struct {
	mode byte
	size int
	dict *patterns
}

// release returns the plan's patterns, if any, to the pool.
func (p numPlan) release() {
	if p.dict != nil {
		patternPool.Put(p.dict)
	}
}

// choose is the mode rule for a Float64 column of n rows: the smallest
// payload among raw, varint (when every value is integral: varint bytes) and
// a dictionary of its k distinct patterns (0: none considered), a tie going
// to the lower mode.
func choose(n int, integral bool, varint, k int) (byte, int) {
	mode, size := modeRaw, 8*n
	if integral && varint < size {
		mode, size = modeVarint, varint
	}
	if d8 := 1 + 8*k + n; k > 0 && k <= 1<<8 && d8 < size {
		return modeDict8, d8
	}
	if d16 := 2 + 8*k + 2*n; k > 1<<8 && k <= 1<<16 && d16 < size {
		return modeDict16, d16
	}
	return mode, size
}

// dictCap is the largest number of distinct patterns k for which a
// dictionary payload of n rows is smaller than size: dict8 needs
// 1+8k+n < size with k ≤ 256, dict16 2+8k+2n < size with k ≤ 65 536.
func dictCap(n, size int) int {
	return max(min(1<<8, (size-n-2)/8), min(1<<16, (size-2*n-3)/8))
}

// planFloats picks the mode of a Float64 column by choose.
func planFloats(vals []float64) numPlan {
	varint, integral := 0, true
	for _, v := range vals {
		i, ok := floatInt(v)
		if !ok {
			integral = false
			break
		}
		varint += uvarintLen(zigzag(i))
	}
	return planDict(vals, integral, varint)
}

// planDict completes planFloats once the varint size is known. Whether a
// dictionary could win is settled without a table first: a column whose
// varint payload is already as small (a one-hot column) cannot take one,
// and k distinct patterns hit at most k buckets of a bitmap, so a column
// that hits more buckets than dictCap allows — any column of mostly
// distinct values — cannot either. Only a column that could is numbered
// exactly.
func planDict(vals []float64, integral bool, varint int) numPlan {
	n := len(vals)
	mode, size := choose(n, integral, varint, 0)
	maxK := dictCap(n, size)
	if maxK <= 0 {
		return numPlan{mode: mode, size: size}
	}
	pt := patternPool.Get().(*patterns)
	if pt.bound(vals, maxK) <= maxK && pt.number(vals, maxK) {
		if m, sz := choose(n, integral, varint, len(pt.order)); m >= modeDict8 {
			return numPlan{mode: m, size: sz, dict: pt}
		}
	}
	patternPool.Put(pt)
	return numPlan{mode: mode, size: size}
}

// planInts picks the mode of an Int64 column: varint when it is smaller.
func planInts(vals []int64) numPlan {
	varint := 0
	for _, v := range vals {
		varint += uvarintLen(zigzag(v))
	}
	if varint < 8*len(vals) {
		return numPlan{mode: modeVarint, size: varint}
	}
	return numPlan{mode: modeRaw, size: 8 * len(vals)}
}

// floatInt returns the int64 that v equals bit for bit, if there is one.
func floatInt(v float64) (int64, bool) {
	if !(v >= -0x1p63 && v < 0x1p63) { // NaN and ±Inf fail too
		return 0, false
	}
	i := int64(v)
	if float64(i) != v || i == 0 && math.Signbit(v) {
		return 0, false
	}
	return i, true
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// codeWidth is the byte width of a string dictionary's codes: the narrowest
// that holds every code of a k-entry dictionary.
func codeWidth(k int) int {
	switch {
	case k <= 1<<8:
		return 1
	case k <= 1<<16:
		return 2
	}
	return 4
}

// stringsLen is what appendStrings writes for list.
func stringsLen(list []string) int {
	n := 0
	for _, s := range list {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

func appendStrings(b []byte, list []string) []byte {
	for _, s := range list {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// patterns numbers the distinct bit patterns of a float column in order of
// first appearance: an open-addressing table with linear probing. It also
// holds the bitmap of bound.
type patterns struct {
	slots []slot
	shift uint
	mask  uint64
	order []uint64 // the distinct patterns, by code
	rows  []uint16 // the code of every row numbered
	seen  []uint64
}

// slot is one entry of the table: a pattern and its code+1 (0: empty).
type slot struct {
	key  uint64
	code uint32
}

// hashMul is the multiplier of the multiplicative hash both the table and
// the bitmap index by: its top bits depend on every bit of the pattern.
const hashMul = 0x9e3779b97f4a7c15

// patternPool recycles tables and bitmaps: a column is planned on every
// encode and every version-2 decode.
var patternPool = sync.Pool{New: func() any { return new(patterns) }}

// bound returns a lower bound on the number of distinct patterns in vals:
// the buckets they hit in a bitmap of eight bits or more a row, one hash
// each. It stops counting once the bound passes maxK.
func (d *patterns) bound(vals []float64, maxK int) int {
	size := max(64, 1<<bits.Len(uint(8*len(vals)-1)))
	if words := size / 64; cap(d.seen) < words {
		d.seen = make([]uint64, words)
	} else {
		d.seen = d.seen[:words]
		clear(d.seen)
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	hit := 0
	for len(vals) > 0 && hit <= maxK {
		chunk := vals[:min(len(vals), 256)]
		vals = vals[len(chunk):]
		for _, v := range chunk {
			h := (math.Float64bits(v) * hashMul) >> shift
			w := &d.seen[h>>6]
			hit += int(^*w >> (h & 63) & 1)
			*w |= 1 << (h & 63)
		}
	}
	return hit
}

// number numbers the patterns of vals afresh and reports false as soon as
// there are more than maxK, which must not exceed 65 536: a code is 16 bits.
// The table has room for maxK+1 at most half full, so it never grows; only
// the slots of the patterns met are touched.
func (d *patterns) number(vals []float64, maxK int) bool {
	d.order, d.rows = d.order[:0], d.rows[:0]
	d.resize(1 << bits.Len(uint(2*maxK+1)))
	for _, v := range vals {
		d.rows = append(d.rows, uint16(d.code(math.Float64bits(v))))
		if len(d.order) > maxK {
			return false
		}
	}
	return true
}

// resize empties the table into size slots, a power of two.
func (d *patterns) resize(size int) {
	if cap(d.slots) < size {
		d.slots = make([]slot, size)
	} else {
		d.slots = d.slots[:size]
		clear(d.slots)
	}
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	d.mask = uint64(size - 1)
}

// code returns the code of pattern k, numbering it if it is new.
func (d *patterns) code(k uint64) uint32 {
	for i := (k * hashMul) >> d.shift; ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.code == 0 {
			d.order = append(d.order, k)
			*s = slot{k, uint32(len(d.order))}
			return uint32(len(d.order) - 1)
		}
		if s.key == k {
			return s.code - 1
		}
	}
}

// colReader is a bounds-checked cursor over an encoded column.
type colReader struct {
	b   []byte
	off int
}

func (r *colReader) left() int { return len(r.b) - r.off }

func (r *colReader) take(n int) ([]byte, bool) {
	if n < 0 || r.left() < n {
		return nil, false
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, true
}

func (r *colReader) u8() (byte, bool) {
	b, ok := r.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

func (r *colReader) u16() (uint16, bool) {
	b, ok := r.take(2)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b), true
}

func (r *colReader) u32() (uint32, bool) {
	b, ok := r.take(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

// uvarint reads a varint in its shortest form and refuses any other.
func (r *colReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

// corrupt returns an error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// DecodeColumn parses and verifies a column record of either version. Any
// structural violation or checksum mismatch returns an error wrapping
// ErrCorrupt.
func DecodeColumn(b []byte) (*data.Column, error) {
	if len(b) < len(colMagic)+4 {
		return nil, corrupt("bad magic")
	}
	magic := string(b[:len(colMagic)])
	if magic != colMagic && magic != colMagicV1 {
		return nil, corrupt("bad magic")
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, corrupt("checksum mismatch")
	}
	r := &colReader{b: body, off: len(colMagic)}
	dt, ok := r.u8()
	if !ok {
		return nil, corrupt("truncated header")
	}
	isDict := dt&dictDType != 0
	c := &data.Column{Type: data.DType(dt &^ dictDType)}
	if isDict && c.Type != data.String {
		return nil, corrupt("dict flag on dtype %d", dt&^dictDType)
	}
	idLen, ok := r.u16()
	if !ok {
		return nil, corrupt("truncated id")
	}
	id, ok := r.take(int(idLen))
	if !ok {
		return nil, corrupt("truncated id")
	}
	c.ID = string(id)
	nameLen, ok := r.u16()
	if !ok {
		return nil, corrupt("truncated name")
	}
	name, ok := r.take(int(nameLen))
	if !ok {
		return nil, corrupt("truncated name")
	}
	c.Name = string(name)
	rows32, ok := r.u32()
	if !ok {
		return nil, corrupt("truncated row count")
	}
	decode := decodePayload
	if magic == colMagicV1 {
		decode = decodePayloadV1
	}
	if err := decode(r, c, int(rows32), isDict); err != nil {
		return nil, err
	}
	if r.left() != 0 {
		return nil, corrupt("%d trailing bytes", r.left())
	}
	return c, nil
}

// decodePayload reads a version-2 payload into c.
func decodePayload(r *colReader, c *data.Column, rows int, isDict bool) error {
	// Every row takes at least one byte in every mode of every dtype, so an
	// honest row count is bounded by the bytes left; checking before
	// allocating keeps a corrupt header from forcing a huge allocation.
	if rows > r.left() {
		return corrupt("row count %d exceeds payload", rows)
	}
	if isDict {
		k, ok := r.uvarint()
		if !ok || k > uint64(r.left()) { // an entry takes at least its length byte
			return corrupt("bad dictionary length")
		}
		dict, err := readStrings(r, int(k))
		if err != nil {
			return err
		}
		width := codeWidth(len(dict))
		payload, ok := r.take(rows * width)
		if !ok {
			return corrupt("truncated code payload")
		}
		codes := make([]uint32, rows)
		for i := range codes {
			switch width {
			case 1:
				codes[i] = uint32(payload[i])
			case 2:
				codes[i] = uint32(binary.LittleEndian.Uint16(payload[2*i:]))
			default:
				codes[i] = binary.LittleEndian.Uint32(payload[4*i:])
			}
			if int(codes[i]) >= len(dict) {
				return corrupt("code %d out of bounds for %d-entry dictionary", codes[i], len(dict))
			}
		}
		c.Dict, c.Codes = dict, codes
		return nil
	}
	switch c.Type {
	case data.Float64:
		vals, err := decodeFloats(r, rows)
		c.Floats = vals
		return err
	case data.Int64:
		return decodeInts(r, c, rows)
	case data.String:
		vals, err := readStrings(r, rows)
		c.Strings = vals
		return err
	case data.Bool:
		return decodeBools(r, c, rows)
	}
	return corrupt("unknown dtype %d", c.Type)
}

// decodeFloats reads a Float64 payload and checks that its mode is the one
// its values select.
func decodeFloats(r *colReader, rows int) ([]float64, error) {
	mode, ok := r.u8()
	if !ok {
		return nil, corrupt("truncated float mode")
	}
	vals := make([]float64, rows)
	var plan numPlan
	switch mode {
	case modeRaw:
		payload, ok := r.take(rows * 8)
		if !ok {
			return nil, corrupt("truncated float payload")
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		plan = planFloats(vals)
	case modeVarint:
		start := r.off
		for i := range vals {
			u, ok := r.uvarint()
			if !ok {
				return nil, corrupt("bad varint at row %d", i)
			}
			v := unzigzag(u)
			f := float64(v)
			if f >= 0x1p63 || int64(f) != v {
				return nil, corrupt("row %d: %d is not a float", i, v)
			}
			vals[i] = f
		}
		plan = planDict(vals, true, r.off-start)
	case modeDict8, modeDict16:
		return vals, decodeFloatDict(r, mode, vals)
	default:
		return nil, corrupt("unknown float mode %d", mode)
	}
	plan.release()
	if plan.mode != mode {
		return nil, corrupt("float mode %d is not the one its values select", mode)
	}
	return vals, nil
}

// decodeFloatDict reads a dictionary payload into vals. The mode rule is
// checked on the dictionary rather than by planning the values again: its
// entries must be distinct and each one used, first in order of entry, and
// choose must select this mode for that many patterns.
func decodeFloatDict(r *colReader, mode byte, vals []float64) error {
	k, width := 0, 1
	if mode == modeDict8 {
		n, ok := r.u8()
		if !ok {
			return corrupt("truncated dictionary length")
		}
		k = int(n) + 1
	} else {
		n, ok := r.u16()
		if !ok {
			return corrupt("truncated dictionary length")
		}
		k, width = int(n)+1, 2
	}
	entries, ok := r.take(8 * k)
	if !ok {
		return corrupt("truncated dictionary")
	}
	codes, ok := r.take(len(vals) * width)
	if !ok {
		return corrupt("truncated code payload")
	}
	dict := make([]float64, k)
	lens := make([]int, k) // each entry's varint length
	integral := true
	for e := range dict {
		dict[e] = math.Float64frombits(binary.LittleEndian.Uint64(entries[8*e:]))
		if i, ok := floatInt(dict[e]); ok {
			lens[e] = uvarintLen(zigzag(i))
		} else {
			integral = false
		}
	}
	pt := patternPool.Get().(*patterns)
	pt.number(dict, k)
	distinct := len(pt.order) == k
	patternPool.Put(pt)
	if !distinct {
		return corrupt("a dictionary entry repeats")
	}
	next, varint := 0, 0 // next is the code the next new value must take
	for i := range vals {
		code := int(codes[i*width])
		if width == 2 {
			code = int(binary.LittleEndian.Uint16(codes[2*i:]))
		}
		if code > next || code == k {
			return corrupt("row %d: code %d out of first-appearance order in a %d-entry dictionary", i, code, k)
		}
		if code == next {
			next++
		}
		vals[i] = dict[code]
		varint += lens[code]
	}
	if next != k {
		return corrupt("%d of %d dictionary entries unused", k-next, k)
	}
	if want, _ := choose(len(vals), integral, varint, k); want != mode {
		return corrupt("float mode %d is not the one its values select", mode)
	}
	return nil
}

func decodeInts(r *colReader, c *data.Column, rows int) error {
	mode, ok := r.u8()
	if !ok {
		return corrupt("truncated int mode")
	}
	c.Ints = make([]int64, rows)
	switch mode {
	case modeRaw:
		payload, ok := r.take(rows * 8)
		if !ok {
			return corrupt("truncated int payload")
		}
		for i := range c.Ints {
			c.Ints[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case modeVarint:
		for i := range c.Ints {
			u, ok := r.uvarint()
			if !ok {
				return corrupt("bad varint at row %d", i)
			}
			c.Ints[i] = unzigzag(u)
		}
	default:
		return corrupt("unknown int mode %d", mode)
	}
	if planInts(c.Ints).mode != mode {
		return corrupt("int mode %d is not the one its values select", mode)
	}
	return nil
}

// readStrings reads n uvarint-length-prefixed strings.
func readStrings(r *colReader, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		l, ok := r.uvarint()
		if !ok || l > uint64(r.left()) {
			return nil, corrupt("bad string length at %d", i)
		}
		s, _ := r.take(int(l))
		out[i] = string(s)
	}
	return out, nil
}

func decodeBools(r *colReader, c *data.Column, rows int) error {
	payload, ok := r.take(rows)
	if !ok {
		return corrupt("truncated bool payload")
	}
	c.Bools = make([]bool, rows)
	for i, v := range payload {
		if v > 1 {
			return corrupt("non-canonical bool byte %d", v)
		}
		c.Bools[i] = v == 1
	}
	return nil
}

// decodePayloadV1 reads a version-1 payload into c.
func decodePayloadV1(r *colReader, c *data.Column, rows int, isDict bool) error {
	if isDict {
		dictLen32, ok := r.u32()
		if !ok {
			return corrupt("truncated dictionary length")
		}
		dictLen := int(dictLen32)
		// Every dictionary entry needs at least its 4-byte length prefix.
		if dictLen > r.left()/4 {
			return corrupt("dictionary length %d exceeds payload", dictLen)
		}
		dict, err := readStringsV1(r, dictLen)
		if err != nil {
			return err
		}
		payload, ok := r.take(rows * 4)
		if !ok {
			return corrupt("truncated code payload")
		}
		codes := make([]uint32, rows)
		for i := range codes {
			code := binary.LittleEndian.Uint32(payload[i*4:])
			if int(code) >= dictLen {
				return corrupt("code %d out of bounds for %d-entry dictionary", code, dictLen)
			}
			codes[i] = code
		}
		c.Dict, c.Codes = dict, codes
		return nil
	}
	switch c.Type {
	case data.Float64:
		payload, ok := r.take(rows * 8)
		if !ok {
			return corrupt("truncated float payload")
		}
		c.Floats = make([]float64, rows)
		for i := range c.Floats {
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case data.Int64:
		payload, ok := r.take(rows * 8)
		if !ok {
			return corrupt("truncated int payload")
		}
		c.Ints = make([]int64, rows)
		for i := range c.Ints {
			c.Ints[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case data.String:
		// Each row needs at least its 4-byte length prefix.
		if rows > r.left()/4 {
			return corrupt("row count %d exceeds payload", rows)
		}
		vals, err := readStringsV1(r, rows)
		c.Strings = vals
		return err
	case data.Bool:
		return decodeBools(r, c, rows)
	default:
		return corrupt("unknown dtype %d", c.Type)
	}
	return nil
}

// readStringsV1 reads n uint32-length-prefixed strings.
func readStringsV1(r *colReader, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		l, ok := r.u32()
		if !ok {
			return nil, corrupt("truncated string length")
		}
		s, ok := r.take(int(l))
		if !ok {
			return nil, corrupt("truncated string payload")
		}
		out[i] = string(s)
	}
	return out, nil
}
