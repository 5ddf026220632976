package remote

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
)

// goldenDAG is the workload DAG of the golden meta-data messages: IDs that
// travel as their 16 bytes and strings that do not, every node field set
// somewhere — the source's external flag by an operation whose hash is
// empty. Its source and its feature frame are Computed, so both travel as
// frontier nodes on optimize; the update names the source unknown, which
// then travels whole, column lineage included.
func goldenDAG() *graph.DAG {
	const src, feat, model, hash = "0123456789abcdef0123456789abcdef", "00112233445566778899aabbccddee00",
		"fedcba9876543210fedcba9876543210", "00112233445566778899aabbccddeeff"
	s := &graph.Node{ID: src, Kind: graph.DatasetKind, Name: "train.csv", Computed: true, SizeBytes: 4096,
		Op:      wireOp{name: "train.csv", kind: graph.DatasetKind, external: true},
		Columns: []string{hash, "plain column"}, ColSizes: []int64{2048, 2048}}
	f := &graph.Node{ID: feat, Kind: graph.DatasetKind, Name: "features", Parents: []*graph.Node{s},
		Op: wireOp{name: "features", hash: hash, kind: graph.DatasetKind}, Computed: true, SizeBytes: 2048,
		LoadedFromEG: true, FetchTier: "session", Columns: []string{hash}, ColSizes: []int64{2048}}
	m := &graph.Node{ID: model, Kind: graph.ModelKind, Name: "train", Parents: []*graph.Node{f},
		Op:          wireOp{name: "train", hash: hash, kind: graph.ModelKind, warmstartKind: "logreg"},
		ComputeTime: 1500 * time.Microsecond, SizeBytes: 120, Quality: 0.875, ModelKind: "logreg",
		LoadedFromEG: true, FetchTime: 20 * time.Microsecond, FetchTier: "memory", PredictedLoad: 30 * time.Microsecond}
	return dagOf(s, f, m, &graph.Node{ID: "score", Kind: graph.AggregateKind, Name: "auc", Parents: []*graph.Node{s, m},
		Op: wireOp{name: "auc", hash: "0123456789ABCDEF0123456789ABCDEF", kind: graph.AggregateKind}, Quality: -2.5})
}

// golden is one message of the protocol as its two ends handle it: out is
// the message its sender writes, in the value its receiver reads it into,
// and want what in must hold once it has.
type golden struct {
	out  marshaler
	in   unmarshaler
	want any
}

// goldenMessages holds one message of every kind the protocol moves, by its
// magic, built from fixed inputs: the golden DAG, inline content and its
// absence, both forms of an artifact. A request's DAG is read as its frontier
// form, and an optimize request without its nodes' column lineage, which it
// does not carry. An upload is read as the server reads it, its column
// records validated and kept; a download is written as the server writes
// it, from the records of the frame's distinct columns.
func goldenMessages(t *testing.T) map[string]golden {
	const src, model, hash = "0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210", "00112233445566778899aabbccddeeff"
	// The frame a download decodes to is built afresh: sizing a column for
	// its record memoises what the decoder does not make.
	newFrame := func() *data.Frame {
		return data.MustNewFrame(
			data.NewFloatColumn("x", []float64{0.5, 1.5, 2.5, 0.5}),
			data.NewIntColumn("n", []int64{3, -1, 40000, 0}),
			data.NewDictColumn("s", []string{"", "a", "b"}, []uint32{1, 2, 1, 0}),
		)
	}
	frame := newFrame()
	records := make([]tier.Record, frame.NumCols())
	for i, c := range frame.Columns() {
		var err error
		if records[i], err = tier.RecordOf(c); err != nil {
			t.Fatal(err)
		}
	}
	logreg := &graph.ModelArtifact{Model: &ml.LogisticRegression{LearningRate: 0.1, MaxIter: 100, Seed: 1,
		Weights: []float64{0.5, -1.25}, Bias: 0.75, EpochsRun: 12}, Quality: 0.875, Features: []string{"x", "n"}}
	auc := &graph.AggregateArtifact{Value: 0.875, Text: "auc"}
	inline := []InlineArtifact{{ID: model, Content: logreg}, {ID: "score", Content: auc}, {ID: src}}
	optimized := &optimizeResponse{Optimization: core.Optimization{
		Plan: &reuse.Plan{Reuse: map[string]bool{src: true, "score": true},
			PredictedLoad: map[string]float64{src: 0.25, "score": 1.5}},
		Warmstarts: []reuse.WarmstartCandidate{{VertexID: model, DonorID: hash, Quality: 0.75}},
		Overhead:   1234567}, Unknown: []string{src, "v"}}
	want := &UpdateResponse{WantContent: []string{src, "score"}, Have: [][]int{{0, 2}, nil}}
	conflict := &frontierConflict{Unknown: []string{src, "v"}}
	absent := &uploadResponse{Absent: []string{src, "v"}}
	return map[string]golden{
		"COQ2": {&OptimizeRequest{DAG: goldenDAG()}, &OptimizeRequest{}, &OptimizeRequest{DAG: frontierForm(goldenDAG(), false)}},
		"CUQ4": {&UpdateRequest{DAG: goldenDAG(), Unknown: []string{src}, WallTime: 2 * time.Second, Inline: inline},
			&UpdateRequest{}, &UpdateRequest{DAG: frontierForm(goldenDAG(), true, src), WallTime: 2 * time.Second, Inline: inline}},
		"COR2": {optimized, &optimizeResponse{}, optimized},
		"CUR1": {want, &UpdateResponse{}, want},
		"CUC1": {conflict, &frontierConflict{}, conflict},
		"CPQ3": {&uploadRequest{Items: []artifactUpload{{ID: "score", Blob: auc},
			{ID: src, ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: frame.Columns()[1:]}}},
			&uploadRecords{}, &uploadRecords{Items: []artifactUpload{{ID: "score", Blob: auc},
				{ID: src, ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Records: records[1:]}}}},
		"CPR1": {absent, &uploadResponse{}, absent},
		"CGR2": {storedDownload{&store.Records{Manifest: tier.ManifestOf(frame.Columns()), Columns: records}},
			&downloadResponse{}, &downloadResponse{Content: &graph.DatasetArtifact{Frame: newFrame()}}},
	}
}

// TestMessagesMatchTheirGoldens pins the bytes of every message: the goldens
// of the messages whose layout has not changed since were written by the
// codec as it stood before it shared a toolkit with the tier, those of the
// requests and the optimize answer when the DAG took its frontier form, and
// the codec must still write the same bytes for the same message and read
// them back to what goldenMessages says its receiver holds.
func TestMessagesMatchTheirGoldens(t *testing.T) {
	msgs := goldenMessages(t)
	magics := make([]string, 0, len(msgs))
	for magic := range msgs {
		magics = append(magics, magic)
	}
	sort.Strings(magics)
	for _, magic := range magics {
		m := msgs[magic]
		body, err := m.out.marshal()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", magic+".bin")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, golden) || string(golden[:4]) != magic {
			t.Errorf("%s: %d bytes written, the golden holds %d; they differ", magic, len(body), len(golden))
		}
		if err := m.in.unmarshal(golden); err != nil {
			t.Fatalf("%s: %v", magic, err)
		}
		if !reflect.DeepEqual(m.in, m.want) {
			t.Errorf("%s decoded as\n%+v\nwant\n%+v", magic, m.in, m.want)
		}
	}
}
