package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// ReadCSV parses CSV content with a header row into a Frame. Column types
// are inferred per column: int64 if every non-empty cell parses as an
// integer, float64 if every non-empty cell parses as a number, string
// otherwise. Empty cells become missing values (NaN / ""). Column lineage
// IDs are SourceID(dataset, name).
func ReadCSV(r io.Reader, dataset string) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("data: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("data: read csv: empty input")
	}
	header := records[0]
	rows := records[1:]
	cols := make([]*Column, 0, len(header))
	for j, name := range header {
		cells := make([]string, len(rows))
		for i, rec := range rows {
			if j < len(rec) {
				cells[i] = rec[j]
			}
		}
		cols = append(cols, inferColumn(dataset, name, cells))
	}
	return NewFrame(cols...)
}

// ReadCSVFile opens path and parses it with ReadCSV; the dataset label for
// lineage IDs is the path itself.
func ReadCSVFile(path string) (*Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, path)
}

func inferColumn(dataset, name string, cells []string) *Column {
	isInt, isFloat := true, true
	for _, s := range cells {
		if s == "" {
			isInt = false // missing ints are not representable
			continue
		}
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			isFloat = false
		}
	}
	id := SourceID(dataset, name)
	switch {
	case isInt:
		vals := make([]int64, len(cells))
		for i, s := range cells {
			vals[i], _ = strconv.ParseInt(s, 10, 64)
		}
		return &Column{ID: id, Name: name, Type: Int64, Ints: vals}
	case isFloat:
		vals := make([]float64, len(cells))
		for i, s := range cells {
			if s == "" {
				vals[i] = math.NaN()
			} else {
				vals[i], _ = strconv.ParseFloat(s, 64)
			}
		}
		return &Column{ID: id, Name: name, Type: Float64, Floats: vals}
	default:
		vals := make([]string, len(cells))
		copy(vals, cells)
		// Low-cardinality string columns enter the system already
		// dictionary-encoded, so joins/group-bys downstream hash codes.
		return dictEncodeIfCompact(&Column{ID: id, Name: name, Type: String, Strings: vals})
	}
}

// WriteCSV renders the frame as CSV with a header row. Missing floats are
// written as empty cells.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, f.NumCols())
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.cols {
			if c.IsMissing(i) {
				rec[j] = ""
			} else {
				rec[j] = c.StringAt(i)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
