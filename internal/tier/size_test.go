package tier_test

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// TestMain numbers the gob types the size tests measure against, in one
// fixed order, before any test runs. Gob numbers a type the first time the
// process encodes it, and the number travels in every stream, so the gob
// sizes the tests log would otherwise depend on which test of the binary
// encoded first.
func TestMain(m *testing.M) {
	for _, v := range gobBaselines() {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// gobBaselines holds a value of each type the size tests gob-encode: a
// frame's column list, and the envelope of every kind of content a run
// produces besides datasets, which carries it as an interface value, so its
// concrete types are registered.
func gobBaselines() []any {
	out := []any{[]*data.Column{}}
	contents := []graph.Artifact{&graph.AggregateArtifact{}}
	for _, m := range []ml.Model{&ml.LogisticRegression{}, &ml.LinearRegression{}, &ml.DecisionTree{},
		&ml.GradientBoostedTrees{}, &ml.RandomForest{}, &ml.KNN{}, &ml.GaussianNB{}, &ml.LinearSVM{}} {
		gob.Register(m)
		contents = append(contents, &graph.ModelArtifact{Model: m})
	}
	gob.Register(&graph.AggregateArtifact{})
	gob.Register(&graph.ModelArtifact{})
	for _, c := range contents {
		out = append(out, &struct{ Content graph.Artifact }{c})
	}
	return out
}

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

// TestBlobRecordsOfRealRuns: every model and aggregate that Table-1 W1–W8
// (Kaggle scale 1, seed 42) and a hundred OpenML stand-in pipelines produce
// decodes from its blob record bit for bit and re-encodes to the same bytes,
// and each record is smaller than the gob envelope it replaced (one fresh
// encoder per artifact, as the wire and the blob files wrote it).
func TestBlobRecordsOfRealRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the Table-1 sequence")
	}
	var dags []*graph.DAG
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	for _, w := range kaggle.AllWorkloads() {
		dags = append(dags, w.Build(src))
	}
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	for _, p := range openml.SamplePipelines(cfg, 100, false) {
		dags = append(dags, p.Build(frame))
	}
	type total struct{ n, records, gobs int }
	byKind := make(map[string]*total)
	for _, dag := range dags {
		if _, err := core.Execute(dag, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range dag.Nodes() {
			kind := "aggregate"
			switch a := n.Content.(type) {
			case *graph.DatasetArtifact, nil:
				continue
			case *graph.ModelArtifact:
				kind = a.Model.Kind()
			}
			rec, err := tier.AppendBlob(nil, n.Content)
			if err != nil {
				t.Fatalf("%s (%s): %v", n.Name, n.ID, err)
			}
			got, err := tier.DecodeBlob(rec)
			if err != nil {
				t.Fatalf("%s (%s): %v", n.Name, n.ID, err)
			}
			if !tier.EqualBits(got, n.Content) {
				t.Errorf("%s (%s) decoded as something else", n.Name, n.ID)
			}
			if re, err := tier.AppendBlob(nil, got); err != nil || !bytes.Equal(re, rec) {
				t.Errorf("%s (%s) re-encoded differently (%v)", n.Name, n.ID, err)
			}
			var env bytes.Buffer
			if err := gob.NewEncoder(&env).Encode(&struct{ Content graph.Artifact }{n.Content}); err != nil {
				t.Fatal(err)
			}
			if len(rec) >= env.Len() {
				t.Errorf("%s (%s): %d bytes as a record, %d as gob", n.Name, n.ID, len(rec), env.Len())
			}
			if byKind[kind] == nil {
				byKind[kind] = &total{}
			}
			k := byKind[kind]
			k.n, k.records, k.gobs = k.n+1, k.records+len(rec), k.gobs+env.Len()
		}
	}
	for kind, k := range byKind {
		t.Logf("%-9s %4d: %7.1f bytes as records, %7.1f as gob on average", kind, k.n,
			float64(k.records)/float64(k.n), float64(k.gobs)/float64(k.n))
	}
	if len(byKind) < 5 {
		t.Errorf("the runs produced %d kinds of content, want aggregates and four learners", len(byKind))
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
// as gob-encoded frames were written before the column record.
func gobBytes(t *testing.T, cols []*data.Column) int64 {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cols); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// BenchmarkColumnRecords encodes and decodes every distinct column a cold
// Table-1 W1–W8 pass (Kaggle scale 2, seed 42) produces, as version-2
// records and as one gob stream, the format they replaced on the wire; and
// validates the records, which is what the server does with an upload.
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
	b.Run("validate/records", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range records {
				if _, err := tier.ValidateColumn(r, nil); err != nil {
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
