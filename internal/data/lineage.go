package data

import (
	"crypto/sha256"
	"encoding/hex"
)

// DeriveID mints a lineage ID by the one rule of the repository: a column's
// ID hashes the identity op of the operation that made it and parts — a tag
// telling apart the columns one operation makes (a join side, an
// aggregate's name, a category, a component index), then the ID of every
// input column its values depend on — as op ‖ (0x00 ‖ part)*. A few IDs fit
// the stack buffer, so a mint allocates only its result.
func DeriveID(op string, parts ...string) string {
	var buf [256]byte
	b := append(buf[:0], op...)
	for _, p := range parts {
		b = append(append(b, 0), p...)
	}
	h := sha256.Sum256(b)
	var id [32]byte
	hex.Encode(id[:], h[:16])
	return string(id[:])
}

// IDs returns the lineage IDs of cols in order, with room for one more part.
func IDs(cols []*Column) []string {
	ids := make([]string, len(cols), len(cols)+1)
	for i, c := range cols {
		ids[i] = c.ID
	}
	return ids
}

// SourceID computes the lineage ID of a raw source column.
func SourceID(dataset, column string) string { return DeriveID("src", dataset, column) }
