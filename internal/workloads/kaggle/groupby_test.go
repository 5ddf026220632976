package kaggle_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/workloads/kaggle"
)

var writeGroupBy = flag.Bool("write-groupby", false, "rewrite the group-by fixture from this tree")

// groupByFixture was written by commit 3839c98, the last one whose group-by
// aggregated in per-chunk hash tables and sorted its groups by rendered key.
const groupByFixture = "testdata/groupby-3839c98.json"

// groupByOutput is what one GroupByAgg vertex of a compute-all pass
// produced: its row count and, per output column, "name:type:crc", the
// CRC-32C of the column's cells (numbers as their 64-bit patterns, strings
// length-prefixed, bools one byte each).
type groupByOutput struct {
	Workload int      `json:"workload"`
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Rows     int      `json:"rows"`
	Columns  []string `json:"columns"`
}

func columnDigest(c *data.Column) string {
	var buf []byte
	for i := 0; i < c.Len(); i++ {
		switch c.Type {
		case data.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Floats[i]))
		case data.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Ints[i]))
		case data.String:
			s := c.StringAt(i)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case data.Bool:
			if c.Bools[i] {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return fmt.Sprintf("%s:%s:%08x", c.Name, c.Type, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
}

// TestGroupByOutputsAreTheParents: every GroupByAgg vertex of a compute-all
// pass of W1–W8 at scale 1 has the rows, the column order and the bits of
// every output column that the fixture's commit computed.
func TestGroupByOutputsAreTheParents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs W1–W8")
	}
	var got []groupByOutput
	for i, w := range computeAll(t, kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})) {
		for _, n := range w.Nodes() {
			if _, ok := n.Op.(ops.GroupByAgg); !ok {
				continue
			}
			ds, ok := n.Content.(*graph.DatasetArtifact)
			if !ok || ds.Frame == nil {
				t.Fatalf("W%d %s: no frame after the run", kaggle.AllWorkloads()[i].ID, n.Name)
			}
			o := groupByOutput{Workload: kaggle.AllWorkloads()[i].ID, ID: n.ID, Name: n.Name, Rows: ds.Frame.NumRows()}
			for _, c := range ds.Frame.Columns() {
				o.Columns = append(o.Columns, columnDigest(c))
			}
			got = append(got, o)
		}
	}
	if *writeGroupBy {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(groupByFixture), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(groupByFixture))
	if err != nil {
		t.Fatal(err)
	}
	var want []groupByOutput
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d group-by vertices, the fixture holds %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Workload != w.Workload || g.ID != w.ID || g.Name != w.Name {
			t.Fatalf("vertex %d is W%d %s (%s), the fixture's W%d %s (%s)", i, g.Workload, g.Name, g.ID, w.Workload, w.Name, w.ID)
		}
		if g.Rows != w.Rows || fmt.Sprint(g.Columns) != fmt.Sprint(w.Columns) {
			t.Errorf("W%d %s: %d rows %v, the fixture's %d rows %v", g.Workload, g.Name, g.Rows, g.Columns, w.Rows, w.Columns)
		}
	}
}
