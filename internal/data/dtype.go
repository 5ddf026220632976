// Package data implements the columnar dataframe substrate used by all ML
// workloads in this repository. It stands in for pandas in the original
// paper's prototype.
//
// A Frame is an ordered collection of typed Columns. Every Column carries a
// lineage ID: applying an operation to a frame derives new IDs only for the
// columns whose values the operation changes — a row selection that keeps
// every row in order changes none — so two columns in different artifacts
// that share an ID hold the same values (§5.3 of the paper). The
// storage-aware materializer relies on this to deduplicate artifact
// contents.
package data

import "fmt"

// DType enumerates the supported column element types.
type DType uint8

const (
	// Float64 columns hold IEEE-754 doubles; NaN encodes a missing value.
	Float64 DType = iota
	// Int64 columns hold signed 64-bit integers.
	Int64
	// String columns hold UTF-8 strings; "" encodes a missing value.
	String
	// Bool columns hold booleans.
	Bool
)

// String returns the lower-case name of the type.
func (t DType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(t))
	}
}

// IsNumeric reports whether values of the type can be converted to float64
// without parsing.
func (t DType) IsNumeric() bool {
	return t == Float64 || t == Int64 || t == Bool
}
