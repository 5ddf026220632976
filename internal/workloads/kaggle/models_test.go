package kaggle_test

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/rec"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

var writeModels = flag.Bool("write-models", false, "rewrite the model fixture from this tree")

// modelsFixture was written by commit 768888c, the last one whose quantile
// view sorted its sample and whose KDE summed the unfactored Gaussian.
const modelsFixture = "testdata/models-768888c.json"

// outcome is what a compute-all run of one workload left at one vertex: a
// model's blob record, sealed, and its length, or an aggregate's bits.
type outcome struct {
	Workload int    `json:"workload"`
	ID       string `json:"id"`
	Name     string `json:"name"`
	Record   string `json:"record,omitempty"` // model: "<crc32c hex>/<bytes>"
	Bits     string `json:"bits,omitempty"`   // aggregate: IEEE-754 bits in hex
	Text     string `json:"text,omitempty"`   // aggregate: its text
}

// computeAll runs W1–W8 on src, each on a server of its own that plans every
// vertex as a compute and stores nothing, and returns the executed DAGs.
func computeAll(tb testing.TB, src *kaggle.Sources) []*graph.DAG {
	tb.Helper()
	var dags []*graph.DAG
	for _, wl := range kaggle.AllWorkloads() {
		srv := core.NewServer(store.New(cost.Memory()),
			core.WithPlanner(reuse.AllCompute{}), core.WithBudget(0))
		w := wl.Build(src)
		if _, err := core.NewClient(srv).Run(w); err != nil {
			tb.Fatalf("W%d: %v", wl.ID, err)
		}
		dags = append(dags, w)
	}
	return dags
}

// outcomes reads every model and aggregate of a compute-all pass of W1–W8 at
// scale 1.
func outcomes(t *testing.T) []outcome {
	t.Helper()
	var out []outcome
	for i, w := range computeAll(t, kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})) {
		id := kaggle.AllWorkloads()[i].ID
		for _, n := range w.Nodes() {
			o := outcome{Workload: id, ID: n.ID, Name: n.Name}
			switch c := n.Content.(type) {
			case *graph.ModelArtifact:
				blob, err := tier.AppendBlob(nil, c)
				if err != nil {
					t.Fatalf("W%d %s: %v", id, n.Name, err)
				}
				fw := rec.Frame("", len(blob))
				fw.Raw(blob)
				sealed, err := fw.Seal()
				if err != nil {
					t.Fatal(err)
				}
				o.Record = hex.EncodeToString(sealed[len(blob):]) + "/" + strconv.Itoa(len(blob))
			case *graph.AggregateArtifact:
				o.Bits = strconv.FormatUint(math.Float64bits(c.Value), 16)
				o.Text = c.Text
			default:
				continue
			}
			out = append(out, o)
		}
	}
	return out
}

// TestModelsAreTheParentsModels: every model W1–W8 train in a compute-all
// pass is, byte for byte of its blob record, the model the fixture's commit
// trained, and every aggregate has its bits — so the selected quantile view
// grows the trees the sorted one grew. W1's KDE is the one exception: its
// factored kernel rounds differently, and it stays within 1e-12 relative.
func TestModelsAreTheParentsModels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs W1–W8")
	}
	got := outcomes(t)
	if *writeModels {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(modelsFixture), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(modelsFixture))
	if err != nil {
		t.Fatal(err)
	}
	var want []outcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d models and aggregates, the fixture holds %d", len(got), len(want))
	}
	models := 0
	for i, g := range got {
		w := want[i]
		if g.Workload != w.Workload || g.ID != w.ID || g.Name != w.Name {
			t.Fatalf("outcome %d is W%d %s (%s), the fixture's W%d %s (%s)", i, g.Workload, g.Name, g.ID, w.Workload, w.Name, w.ID)
		}
		if g.Record != "" {
			models++
		}
		if g.Record != w.Record || g.Text != w.Text {
			t.Errorf("W%d %s: record %s %q, the fixture's %s %q", g.Workload, g.Name, g.Record, g.Text, w.Record, w.Text)
			continue
		}
		if g.Bits == w.Bits {
			continue
		}
		if g.Text != "kde2d" {
			t.Errorf("W%d %s: bits %s, the fixture's %s", g.Workload, g.Name, g.Bits, w.Bits)
			continue
		}
		gv, wv := fromBits(t, g.Bits), fromBits(t, w.Bits)
		if math.Abs(gv-wv) > 1e-12*math.Abs(wv) {
			t.Errorf("W%d %s: KDE %v, the fixture's %v", g.Workload, g.Name, gv, wv)
		}
	}
	if models == 0 {
		t.Error("no model in the pass")
	}
}

func fromBits(t *testing.T, s string) float64 {
	t.Helper()
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(u)
}

// BenchmarkColdPassCompute is the client compute of one kaggle_cold pass
// without HTTP: W1–W8 at scale 2, each run in process on a compute-all
// server. Nothing is reused, so every kernel of the pass runs — the KDE,
// the quantile views, the joins, the group-bys and the learners.
func BenchmarkColdPassCompute(b *testing.B) {
	src := kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeAll(b, src)
	}
}

// BenchmarkColdPassReuse is the client compute of what one kaggle_cold pass
// executes, without HTTP: W1–W8 at scale 2 in sequence on one default
// in-process server, fresh each pass, so a vertex an earlier workload
// computed is reused and none is computed twice. BenchmarkColdPassCompute
// recomputes W2's features in every later workload that shares them.
func BenchmarkColdPassReuse(b *testing.B) {
	src := kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := core.NewClient(core.NewServer(store.New(cost.Memory())))
		for _, wl := range kaggle.AllWorkloads() {
			if _, err := cl.Run(wl.Build(src)); err != nil {
				b.Fatalf("W%d: %v", wl.ID, err)
			}
		}
	}
}
