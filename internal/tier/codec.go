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
// and rebuilds the tier index so a restarted server comes up warm. Every
// record is read and written with the primitives of internal/rec.
//
// The column record is also the server's form of a column: an upload's
// records are validated (ValidateColumn) and kept as they arrived, in the
// store's memory tier or as the tier's files, and a download writes them
// back; only an in-process reader decodes one.
package tier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/data"
	"repro/internal/rec"
)

// ErrCorrupt marks a file that failed structural validation or checksum
// verification. Callers treat such files as absent and quarantine them. It
// is the toolkit's error: every failure a record reader reports wraps it.
var ErrCorrupt = rec.ErrCorrupt

// Column record format, version 2, in the primitives of internal/rec.
// It is the one byte format of a column: a file of the disk tier, a column
// of an upload body or a download on the wire, and the form in which the
// store's memory tier keeps an uploaded column, which the server validates
// (ValidateColumn), keeps and sends back without decoding it.
//
//	magic   "CTC2"
//	dtype   u8                           data.DType
//	id      str16                        lineage ID
//	name    str16                        column name at write time
//	rows    u32
//	payload                              per dtype, see below
//	crc     u32                          CRC-32C of everything above
//
// A Float64 or Int64 payload is a mode byte and the values in that mode:
//
//	0 raw     rows × 8 bytes: the IEEE-754 bits, or two's complement
//	1 varint  rows × int; in a Float64 column every cell is an integral
//	          float and the int the int64 it equals bit for bit (−0, NaN
//	          and ±Inf are not)
//	2 dict8   Float64 only: u8 k−1, k distinct 8-byte bit patterns in order
//	          of first appearance, rows × u8 code
//	3 dict16  Float64 only: u16 k−1, the same k entries, rows × u16 code
//
// The mode is a function of the values: the smallest payload among the
// modes the column can take, a tie going to the lower mode. A dictionary
// keys on bit patterns, so every NaN payload and −0 survive it.
//
// Bool is 1 byte per row (0 or 1 — anything else is rejected). String is a
// str per row. A dictionary-encoded string column sets the high bit of the
// dtype byte (dictDType | String) and carries uvarint k, k × str, then one
// code per row in the narrowest width that holds k−1: 1 byte up to 256
// entries, 2 up to 65 536, else 4. Codes must index the dictionary, and
// the entries strictly ascend, compared bytewise: no entry repeats (the key
// kernels take equal codes for equal strings), and code order is string
// order (sort, one-hot and the group-by's key order compare codes).
//
// The encoding is canonical: any version-2 byte string that decodes
// re-encodes to exactly the same bytes, which the fuzz test exploits. So
// the decoder refuses a mode other than the one its values select, a varint
// longer than its shortest form, a float dictionary with a repeated or
// unused entry or out of first-appearance order, and a string dictionary
// whose entries do not strictly ascend.
//
// Nothing reads version 1 ("CTC1"): Open refuses a directory holding one,
// and a CTC1 record on the wire is refused as corrupt.
const colMagic = "CTC2"

// MinColumnRecord is the size of the shortest column record: magic, dtype,
// an empty ID and name, a row count and the checksum.
const MinColumnRecord = len(colMagic) + 1 + 2 + 2 + 4 + rec.SealLen

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
		size = rec.UvarintLen(uint64(len(c.Dict))) + stringsLen(c.Dict) + rows*codeWidth(len(c.Dict))
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
	w := rec.Frame(colMagic, 1+2+len(c.ID)+2+len(c.Name)+4+size)
	w.U8(dtype)
	w.Str16(c.ID)
	w.Str16(c.Name)
	w.U32(uint32(rows))
	switch {
	case isDict:
		w.Uvarint(uint64(len(c.Dict)))
		writeStrings(&w, c.Dict)
		width := codeWidth(len(c.Dict))
		for _, code := range c.Codes {
			switch width {
			case 1:
				w.U8(byte(code))
			case 2:
				w.U16(uint16(code))
			default:
				w.U32(code)
			}
		}
	case c.Type == data.Float64:
		writeFloatColumn(&w, c.Floats, plan)
	case c.Type == data.Int64:
		w.U8(plan.mode)
		for _, v := range c.Ints {
			if plan.mode == modeVarint {
				w.Int(v)
			} else {
				w.U64(uint64(v))
			}
		}
	case c.Type == data.String:
		writeStrings(&w, c.Strings)
	case c.Type == data.Bool:
		for _, v := range c.Bools {
			if v {
				w.U8(1)
			} else {
				w.U8(0)
			}
		}
	}
	return w.Seal()
}

// writeFloatColumn writes a Float64 payload in the mode plan chose.
func writeFloatColumn(w *rec.Writer, vals []float64, plan numPlan) {
	w.U8(plan.mode)
	switch plan.mode {
	case modeRaw:
		w.Floats(vals)
	case modeVarint:
		for _, v := range vals {
			i, _ := floatInt(v)
			w.Int(i)
		}
	case modeDict8, modeDict16:
		d := plan.dict
		if plan.mode == modeDict8 {
			w.U8(byte(len(d.order) - 1))
		} else {
			w.U16(uint16(len(d.order) - 1))
		}
		for _, k := range d.order {
			w.U64(k)
		}
		for _, code := range d.rows {
			if plan.mode == modeDict8 {
				w.U8(byte(code))
			} else {
				w.U16(code)
			}
		}
	}
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
		varint += rec.UvarintLen(rec.Zigzag(i))
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
		varint += rec.UvarintLen(rec.Zigzag(v))
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

// stringsLen is what writeStrings writes for list.
func stringsLen(list []string) int {
	n := 0
	for _, s := range list {
		n += rec.UvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

func writeStrings(w *rec.Writer, list []string) {
	for _, s := range list {
		w.Str(s)
	}
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

// DecodeColumn parses and verifies a version-2 column record. Any
// structural violation or checksum mismatch returns an error wrapping
// ErrCorrupt. ValidateColumn makes the same checks without building the
// column.
func DecodeColumn(b []byte) (*data.Column, error) {
	_, c, err := readColumn(b, nil, true)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// readColumn reads a version-2 column record, checking every rule of the
// format, and returns what it says of its column: the column itself when
// keep is set, else only its ColumnInfo, the values read into pooled
// scratch and dropped. known is as ValidateColumn takes it.
func readColumn(b []byte, known Known, keep bool) (ColumnInfo, *data.Column, error) {
	_, body, err := rec.Open(b, colMagic)
	if err != nil {
		return ColumnInfo{}, nil, err
	}
	r := rec.NewReader(body)
	info, isDict := readHeader(&r, known)
	var c *data.Column
	if keep {
		c = &data.Column{Type: info.Type, ID: info.ID, Name: info.Name}
	}
	if r.Err() == nil {
		info.Size = readPayload(&r, info, isDict, c)
	}
	return info, c, r.Done()
}

// readHeader reads a record from its dtype byte to its row count. It refuses an ID or a name longer than EncodeColumn writes, so
// that every record that reads can be written again. The ID and name are
// fresh strings, or with known set the strings it returns for their bytes;
// a record whose pair known does not hold is refused.
func readHeader(r *rec.Reader, known Known) (info ColumnInfo, isDict bool) {
	dt := r.U8()
	isDict = dt&dictDType != 0
	info.Type = data.DType(dt &^ dictDType)
	id, name := r.Bytes(int(r.U16())), r.Bytes(int(r.U16()))
	info.Rows = int(r.U32())
	switch {
	case r.Err() != nil:
	case len(id) > maxMetaLen || len(name) > maxMetaLen:
		r.Fail("column id/name too long (%d/%d bytes)", len(id), len(name))
	case isDict && info.Type != data.String:
		r.Fail("dict flag on dtype %d", info.Type)
	case known == nil:
		info.ID, info.Name = string(id), string(name)
	default:
		var ok bool
		if info.ID, info.Name, ok = known(id, name); !ok {
			r.Fail("column %s named %q is not a column the message names", id, name)
		}
	}
	return info, isDict
}

// readPayload reads a version-2 payload of info's column into c, or into
// nothing when c is nil, and returns the SizeBytes of the column it holds.
func readPayload(r *rec.Reader, info ColumnInfo, isDict bool, c *data.Column) int64 {
	// Every row takes at least one byte in every mode of every dtype, so an
	// honest row count is bounded by the bytes left; checking before
	// allocating keeps a corrupt header from forcing a huge allocation.
	rows, keep := info.Rows, c != nil
	if rows > r.Left() {
		r.Fail("row count %d exceeds payload", rows)
		return 0
	}
	if isDict {
		k := r.Count(1) // an entry takes at least its length byte
		dict, size := readStrings(r, k, keep, true)
		if codes, ok := readCodes(r, rows, k, keep); ok && keep {
			c.Dict, c.Codes = dict, codes
		}
		return size + 4*int64(rows)
	}
	switch info.Type {
	case data.Float64:
		if keep {
			c.Floats = make([]float64, rows)
			readFloatPayload(r, c.Floats)
		} else {
			s := scratchPool.Get().(*scratch)
			readFloatPayload(r, s.floats(rows))
			scratchPool.Put(s)
		}
		return 8 * int64(rows)
	case data.Int64:
		if keep {
			c.Ints = make([]int64, rows)
			readIntPayload(r, c.Ints)
		} else {
			s := scratchPool.Get().(*scratch)
			readIntPayload(r, s.ints(rows))
			scratchPool.Put(s)
		}
		return 8 * int64(rows)
	case data.String:
		strs, size := readStrings(r, rows, keep, false)
		if keep {
			c.Strings = strs
		}
		return size
	case data.Bool:
		bools := readBoolPayload(r, rows, keep)
		if keep {
			c.Bools = bools
		}
		return int64(rows)
	}
	r.Fail("unknown dtype %d", info.Type)
	return 0
}

// readCodes reads the codes of a k-entry string dictionary, one per row,
// checks that each indexes the dictionary, and returns them when keep is
// set.
func readCodes(r *rec.Reader, rows, k int, keep bool) ([]uint32, bool) {
	width := codeWidth(k)
	payload := r.Bytes(rows * width)
	if r.Err() != nil {
		return nil, false
	}
	var codes []uint32
	if keep {
		codes = make([]uint32, rows)
	}
	for i := 0; i < rows; i++ {
		var code uint32
		switch width {
		case 1:
			code = uint32(payload[i])
		case 2:
			code = uint32(binary.LittleEndian.Uint16(payload[2*i:]))
		default:
			code = binary.LittleEndian.Uint32(payload[4*i:])
		}
		if int(code) >= k {
			r.Fail("code %d out of bounds for %d-entry dictionary", code, k)
			return nil, false
		}
		if keep {
			codes[i] = code
		}
	}
	return codes, true
}

// readFloatPayload reads a Float64 payload of len(vals) rows into vals and checks
// that its mode is the one its values select.
func readFloatPayload(r *rec.Reader, vals []float64) {
	mode := r.U8()
	var plan numPlan
	switch mode {
	case modeRaw:
		payload := r.Bytes(len(vals) * 8)
		if payload == nil {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		plan = planFloats(vals)
	case modeVarint:
		left := r.Left()
		for i := range vals {
			v := r.Int()
			f := float64(v)
			if f >= 0x1p63 || int64(f) != v {
				r.Fail("row %d: %d is not a float", i, v)
				return
			}
			vals[i] = f
		}
		if r.Err() != nil {
			return
		}
		plan = planDict(vals, true, left-r.Left())
	case modeDict8, modeDict16:
		readFloatDict(r, mode, vals)
		return
	default:
		r.Fail("unknown float mode %d", mode)
		return
	}
	plan.release()
	if plan.mode != mode {
		r.Fail("float mode %d is not the one its values select", mode)
	}
}

// readFloatDict reads a dictionary payload into vals. The mode rule is
// checked on the dictionary rather than by planning the values again: its
// entries must be distinct and each one used, first in order of entry, and
// choose must select this mode for that many patterns.
func readFloatDict(r *rec.Reader, mode byte, vals []float64) {
	k, width := 0, 1
	if mode == modeDict8 {
		k = int(r.U8()) + 1
	} else {
		k, width = int(r.U16())+1, 2
	}
	entries := r.Bytes(8 * k)
	codes := r.Bytes(len(vals) * width)
	if r.Err() != nil {
		return
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	dict, lens := s.entries(k) // lens: each entry's varint length
	integral := true
	for e := range dict {
		dict[e] = math.Float64frombits(binary.LittleEndian.Uint64(entries[8*e:]))
		lens[e] = 0
		if i, ok := floatInt(dict[e]); ok {
			lens[e] = rec.UvarintLen(rec.Zigzag(i))
		} else {
			integral = false
		}
	}
	pt := patternPool.Get().(*patterns)
	pt.number(dict, k)
	distinct := len(pt.order) == k
	patternPool.Put(pt)
	if !distinct {
		r.Fail("a dictionary entry repeats")
		return
	}
	next, varint := 0, 0 // next is the code the next new value must take
	for i := range vals {
		code := int(codes[i*width])
		if width == 2 {
			code = int(binary.LittleEndian.Uint16(codes[2*i:]))
		}
		if code > next || code == k {
			r.Fail("row %d: code %d out of first-appearance order in a %d-entry dictionary", i, code, k)
			return
		}
		if code == next {
			next++
		}
		vals[i] = dict[code]
		varint += lens[code]
	}
	if next != k {
		r.Fail("%d of %d dictionary entries unused", k-next, k)
		return
	}
	if want, _ := choose(len(vals), integral, varint, k); want != mode {
		r.Fail("float mode %d is not the one its values select", mode)
	}
}

// readIntPayload reads an Int64 payload of len(ints) rows into ints and checks
// that its mode is the one its values select.
func readIntPayload(r *rec.Reader, ints []int64) {
	mode := r.U8()
	switch mode {
	case modeRaw:
		if payload := r.Bytes(len(ints) * 8); payload != nil {
			for i := range ints {
				ints[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
			}
		}
	case modeVarint:
		for i := range ints {
			ints[i] = r.Int()
		}
	default:
		r.Fail("unknown int mode %d", mode)
	}
	if r.Err() == nil && planInts(ints).mode != mode {
		r.Fail("int mode %d is not the one its values select", mode)
	}
}

// readStrings reads n strs, returns them when keep is set, and returns
// what they add to a column's size. With ascend set they are a dictionary's
// entries, and each must sort after the one before it, bytewise.
func readStrings(r *rec.Reader, n int, keep, ascend bool) ([]string, int64) {
	var out []string
	if keep {
		out = make([]string, n)
	}
	var size int64
	var prev []byte
	for i := 0; i < n; i++ {
		s := r.StrBytes()
		if r.Err() != nil {
			return nil, 0
		}
		if ascend && i > 0 && bytes.Compare(s, prev) <= 0 {
			r.Fail("dictionary entry %q does not sort after %q", s, prev)
			return nil, 0
		}
		if keep {
			out[i] = string(s)
		}
		size += int64(len(s)) + 16
		prev = s
	}
	return out, size
}

// readBoolPayload reads a Bool payload of rows bytes, each 0 or 1, and returns
// the values when keep is set.
func readBoolPayload(r *rec.Reader, rows int, keep bool) []bool {
	payload := r.Bytes(rows)
	var bools []bool
	if keep {
		bools = make([]bool, len(payload))
	}
	for i, v := range payload {
		if v > 1 {
			r.Fail("non-canonical bool byte %d", v)
			return nil
		}
		if keep {
			bools[i] = v == 1
		}
	}
	return bools
}
