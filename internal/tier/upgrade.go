package tier

import (
	"bytes"
	"encoding/gob"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/rec"
)

// Version 1 of the tier's files, written before the version-2 records.
// Open upgrades each such file it finds to version 2 under the same name,
// and nothing else reads one. Each is framed as its version 2 is, magic
// first and CRC-32C last, around
//
//	CTC1  the version-2 column header, then Float64/Int64 as rows × 8
//	      bytes, strings as u32 length + bytes, a string dictionary as u32
//	      k, u32-length entries and u32 codes
//	CTM1  str16 vid, u32 count, count × (str16 colID, str16 name)
//	CTB1  str16 vid, the gob of one blobEnvelope
const (
	colMagicV1   = "CTC1"
	frameMagicV1 = "CTM1"
	blobMagicV1  = "CTB1"
)

// upgrade returns the version-2 file of a version-1 file that reads, and b
// itself, not upgraded, for anything else: a version-2 file, or a corrupt
// one, which Open then refuses as it refuses any corrupt file. A version-1
// file whose content has no version-2 record is an error: the file is sound.
func upgrade(b []byte) ([]byte, bool, error) {
	magic, body, err := rec.Open(b, colMagicV1, frameMagicV1, blobMagicV1)
	if err != nil {
		return b, false, nil
	}
	r := rec.NewReader(body)
	var v2 []byte
	switch magic {
	case colMagicV1:
		if c := readColumnV1(&r); r.Done() == nil {
			v2, err = EncodeColumn(c)
		}
	case frameMagicV1:
		if vid, man := readManifestV1(&r); r.Done() == nil {
			v2, err = encodeManifest(vid, man)
		}
	default:
		if vid, a := r.Str16(), readBlobV1(&r); r.Done() == nil {
			v2, err = encodeBlob(vid, a)
		}
	}
	if v2 == nil && err == nil {
		return b, false, nil
	}
	return v2, err == nil, err
}

// readColumnV1 reads the body of a version-1 column record.
func readColumnV1(r *rec.Reader) *data.Column {
	info, isDict := readHeader(r)
	c := &data.Column{Type: info.Type, ID: info.ID, Name: info.Name}
	rows := info.Rows
	switch {
	case r.Err() != nil:
	case isDict:
		dict := readStringsV1(r, int(r.U32()))
		if s, dup := data.RepeatedEntry(dict); dup {
			r.Fail("dictionary entry %q repeats", s)
			return nil
		}
		if rows*4 > r.Left() {
			r.Fail("truncated code payload")
			return nil
		}
		c.Dict, c.Codes = dict, make([]uint32, rows)
		for i := range c.Codes {
			if c.Codes[i] = r.U32(); int(c.Codes[i]) >= len(dict) {
				r.Fail("code %d out of bounds for %d-entry dictionary", c.Codes[i], len(dict))
				return nil
			}
		}
	case c.Type == data.Float64 || c.Type == data.Int64:
		if r.Left() < rows*8 {
			r.Fail("truncated payload")
			return nil
		}
		if c.Type == data.Float64 {
			c.Floats = make([]float64, rows)
			for i := range c.Floats {
				c.Floats[i] = r.Float()
			}
		} else {
			c.Ints = make([]int64, rows)
			for i := range c.Ints {
				c.Ints[i] = int64(r.U64())
			}
		}
	case c.Type == data.String:
		c.Strings = readStringsV1(r, rows)
	case c.Type == data.Bool:
		c.Bools = readBoolPayload(r, rows, true)
	default:
		r.Fail("unknown dtype %d", c.Type)
	}
	return c
}

// readStringsV1 reads n u32-length-prefixed strings. Each takes its 4-byte
// length at least, so a count the bytes left cannot hold fails before
// anything is made for it.
func readStringsV1(r *rec.Reader, n int) []string {
	if n > r.Left()/4 {
		r.Fail("%d strings in %d bytes", n, r.Left())
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = string(r.Bytes(int(r.U32())))
	}
	return out
}

// readManifestV1 reads the body of a version-1 manifest file.
func readManifestV1(r *rec.Reader) (vid string, man Manifest) {
	vid = r.Str16()
	n := r.U32()
	if n > uint32(r.Left()/4) { // an entry takes two lengths at least
		r.Fail("%d manifest entries in %d bytes", n, r.Left())
		return "", man
	}
	man.ColIDs, man.Names = make([]string, n), make([]string, n)
	for i := range man.ColIDs {
		man.ColIDs[i], man.Names[i] = r.Str16(), r.Str16()
	}
	return vid, man
}

// The payload of a version-1 blob file is the gob of one blobEnvelope, so
// the concrete artifact and model types must be registered to read it.
func init() { graph.RegisterGobTypes() }

// blobEnvelope wraps the Artifact interface for gob.
type blobEnvelope struct {
	Content graph.Artifact
}

// readBlobV1 reads the rest of a version-1 blob file: one blobEnvelope
// holding content, and nothing after it.
func readBlobV1(r *rec.Reader) graph.Artifact {
	p := bytes.NewReader(r.Bytes(r.Left()))
	var env blobEnvelope
	switch err := gob.NewDecoder(p).Decode(&env); {
	case err != nil:
		r.Fail("blob gob: %v", err)
	case p.Len() > 0:
		r.Fail("%d bytes after the blob", p.Len())
	case env.Content == nil:
		r.Fail("empty blob")
	}
	return env.Content
}
