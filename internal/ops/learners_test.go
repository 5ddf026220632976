package ops

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/tier"
)

// learnerFrame is the frame every learner of the learners golden trains on:
// trainingFrame's six features and TARGET, an int column, a float column
// with a missing cell in every seventh row and a string column, which is no
// feature.
func learnerFrame() *data.Frame {
	f := trainingFrame(11, 240, 6)
	n := f.NumRows()
	ints := make([]int64, n)
	gap := make([]float64, n)
	tags := make([]string, n)
	for i := range gap {
		ints[i] = int64(i % 5)
		gap[i] = float64(i%13) - 6.5
		if i%7 == 3 {
			gap[i] = math.NaN()
		}
		tags[i] = fmt.Sprint("t", i%3)
	}
	return data.MustNewFrame(append(f.Columns(),
		data.NewIntColumn("k", ints),
		data.NewFloatColumn("gap", gap),
		data.NewStringColumn("tag", tags))...)
}

// digest is the first 16 hex digits of the SHA-256 of b.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// TestLearnersMatchTheGolden trains every model kind at seeds 0–2 through
// Train.Run on learnerFrame and pins, per model, the held-out quality, the
// model's blob record and the prediction column Predict appends to the whole
// frame and to a frame that lacks some of the features. A change to how a
// learner is fed its features is meant to leave every line as it is; one
// that is meant to move a model rewrites testdata/learners.golden with
// -update and says why.
func TestLearnersMatchTheGolden(t *testing.T) {
	whole := &graph.DatasetArtifact{Frame: learnerFrame()}
	part, err := whole.Frame.Select("f0", "f2", "gap", "tag")
	if err != nil {
		t.Fatal(err)
	}
	partial := &graph.DatasetArtifact{Frame: part}
	var b bytes.Buffer
	for _, kind := range []string{"logreg", "linreg", "tree", "gbt", "rf", "knn", "nb", "svm"} {
		for seed := int64(0); seed < 3; seed++ {
			ma := modelInput(runOp(t, &Train{Spec: ModelSpec{Kind: kind, Seed: seed}, Label: "TARGET"}, whole), "model-vertex")
			blob, err := tier.AppendBlob(nil, ma)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s\tseed=%d\tq=%s\tmodel=%s", kind, seed, strconv.FormatFloat(ma.Quality, 'g', -1, 64), digest(blob))
			for _, in := range []*graph.DatasetArtifact{whole, partial} {
				out := frameOut(t, runOp(t, Predict{}, ma, in))
				rec, err := tier.EncodeColumn(out.Column("prediction"))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "\t%d:%s", out.NumCols(), digest(rec))
			}
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "learners.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("learners differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}
