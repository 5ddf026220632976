package tier_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// TestRecordsAreSmallerThanGob is the size bar the column record had to
// clear before it could travel: over every frame that Table-1 W1–W8 (Kaggle
// scale 2, seed 42, as the benchmark runs them) and twenty OpenML stand-in
// pipelines produce, each frame's columns as version-2 records are no larger
// than the frame's gob encoding, and all of them together are at least 10 %
// smaller.
func TestRecordsAreSmallerThanGob(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the Table-1 sequence at benchmark scale")
	}
	var dags []*graph.DAG
	src := kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42})
	for _, w := range kaggle.AllWorkloads() {
		dags = append(dags, w.Build(src))
	}
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	for _, p := range openml.SamplePipelines(cfg, 20, false) {
		dags = append(dags, p.Build(frame))
	}
	seen := make(map[string]bool)
	var records, gobs int64
	for _, dag := range dags {
		if _, err := core.Execute(dag, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range dag.Nodes() {
			ds, ok := n.Content.(*graph.DatasetArtifact)
			if !ok || ds.Frame == nil || seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			r, g := recordBytes(t, ds.Frame.Columns()), gobBytes(t, ds.Frame.Columns())
			if r > g {
				t.Errorf("%s (%s): %d bytes as records, %d as gob", n.Name, n.ID, r, g)
			}
			records, gobs = records+r, gobs+g
		}
	}
	t.Logf("%d frames: %d bytes as records, %d as gob (%+.1f %%)", len(seen), records, gobs, 100*float64(records-gobs)/float64(gobs))
	if records > gobs*9/10 {
		t.Errorf("records total %d bytes, gob %d: not 10 %% smaller", records, gobs)
	}
}

func recordBytes(t *testing.T, cols []*data.Column) int64 {
	var n int64
	for _, c := range cols {
		b, err := tier.EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(b))
	}
	return n
}

// gobBytes is a frame's gob encoding: its column list, by a fresh encoder,
// as data.Frame.GobEncode writes it.
func gobBytes(t *testing.T, cols []*data.Column) int64 {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cols); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// BenchmarkColumnRecords encodes and decodes every distinct column a cold
// Table-1 W1–W8 pass (Kaggle scale 2, seed 42) produces, as version-2
// records and as one gob stream, the format they replaced on the wire.
func BenchmarkColumnRecords(b *testing.B) {
	src := kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42})
	seen := make(map[string]bool)
	var cols []*data.Column
	for _, w := range kaggle.AllWorkloads() {
		dag := w.Build(src)
		if _, err := core.Execute(dag, nil, nil); err != nil {
			b.Fatal(err)
		}
		for _, n := range dag.Nodes() {
			if ds, ok := n.Content.(*graph.DatasetArtifact); ok && ds.Frame != nil {
				for _, c := range ds.Frame.Columns() {
					if !seen[c.ID] {
						seen[c.ID] = true
						cols = append(cols, c)
					}
				}
			}
		}
	}
	records := make([][]byte, len(cols))
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for i, c := range cols {
		var err error
		if records[i], err = tier.EncodeColumn(c); err != nil {
			b.Fatal(err)
		}
		if err := enc.Encode(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.Run("encode/records", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cols {
				if _, err := tier.EncodeColumn(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encode/gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			for _, c := range cols {
				if err := enc.Encode(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode/records", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range records {
				if _, err := tier.DecodeColumn(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode/gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dec := gob.NewDecoder(bytes.NewReader(stream.Bytes()))
			for range cols {
				var c data.Column
				if err := dec.Decode(&c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
