package remote

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/reuse"
)

// goldenMessages holds one message of every kind the protocol moves, by its
// magic, built from fixed inputs: IDs that travel as their 16 bytes and
// strings that do not, every node field set somewhere, inline content and
// its absence, both forms of an artifact.
func goldenMessages() map[string]message {
	const src, model, hash = "0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210", "00112233445566778899aabbccddeeff"
	nodes := []WireNode{
		{ID: src, Kind: graph.DatasetKind, Name: "train.csv", External: true, Computed: true, SizeBytes: 4096,
			Columns: []string{hash, "plain column"}, ColSizes: []int64{2048, 2048}},
		{ID: model, Kind: graph.ModelKind, Name: "train", OpHash: hash, WarmstartKind: "logreg", Parents: []string{src},
			Computed: true, ComputeTime: 1500 * time.Microsecond, SizeBytes: 120, Quality: 0.875, TrainedKind: "logreg",
			LoadedFromEG: true, FetchTime: 20 * time.Microsecond, FetchTier: "memory", PredictedLoad: 30 * time.Microsecond},
		{ID: "score", Kind: graph.AggregateKind, Name: "auc", OpHash: "0123456789ABCDEF0123456789ABCDEF",
			Parents: []string{src, model}, Quality: -2.5},
	}
	frame := data.MustNewFrame(
		data.NewFloatColumn("x", []float64{0.5, 1.5, 2.5, 0.5}),
		data.NewIntColumn("n", []int64{3, -1, 40000, 0}),
		data.NewDictColumn("s", []string{"", "a", "b"}, []uint32{1, 2, 1, 0}),
	)
	logreg := &graph.ModelArtifact{Model: &ml.LogisticRegression{LearningRate: 0.1, MaxIter: 100, Seed: 1,
		Weights: []float64{0.5, -1.25}, Bias: 0.75, EpochsRun: 12}, Quality: 0.875, Features: []string{"x", "n"}}
	auc := &graph.AggregateArtifact{Value: 0.875, Text: "auc"}
	return map[string]message{
		"COQ1": &OptimizeRequest{Nodes: nodes},
		"CUQ2": &UpdateRequest{Nodes: nodes, WallTime: 2 * time.Second,
			Inline: []InlineArtifact{{ID: model, Content: logreg}, {ID: "score", Content: auc}, {ID: src}}},
		"COR1": &OptimizeResponse{ReuseIDs: []string{src, "score"},
			Warmstarts: []reuse.WarmstartCandidate{{VertexID: model, DonorID: hash, Quality: 0.75}},
			Overhead:   1234567, PredictedLoadSec: []float64{0.25, 1.5}},
		"CUR1": &UpdateResponse{WantContent: []string{src, "score"}, Have: [][]int{{0, 2}, nil}},
		"CPQ2": &uploadRequest{Items: []artifactUpload{{ID: "score", Blob: auc},
			{ID: src, ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: frame.Columns()[1:]}}},
		"CPR1": &uploadResponse{Absent: []string{src, "v"}},
		"CGR2": &downloadResponse{Content: &graph.DatasetArtifact{Frame: frame}},
	}
}

// TestMessagesMatchTheirGoldens pins the bytes of every message: the goldens
// were written by the codec as it stood before it shared a toolkit with the
// tier, and the codec must still write the same bytes for the same message
// and read them back to it (an optimize request without its nodes' column
// lineage, which it does not carry).
func TestMessagesMatchTheirGoldens(t *testing.T) {
	msgs := goldenMessages()
	magics := make([]string, 0, len(msgs))
	for magic := range msgs {
		magics = append(magics, magic)
	}
	sort.Strings(magics)
	for _, magic := range magics {
		m := msgs[magic]
		body, err := m.marshal()
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
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(message)
		if err := got.unmarshal(golden); err != nil {
			t.Fatalf("%s: %v", magic, err)
		}
		want := m
		if req, ok := m.(*OptimizeRequest); ok {
			nodes := slices.Clone(req.Nodes)
			for i := range nodes {
				nodes[i].Columns, nodes[i].ColSizes = nil, nil
			}
			want = &OptimizeRequest{Nodes: nodes}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded as\n%+v\nwant\n%+v", magic, got, want)
		}
	}
}
