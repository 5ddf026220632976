package remote

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// codecColumns returns n distinct columns of Kaggle's application table at
// scale 2 (4 000 rows), its columns taken in turn.
func codecColumns(n int) []*data.Column {
	src := kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42}).AppTrain.Columns()
	cols := make([]*data.Column, n)
	for i := range cols {
		c := src[i%len(src)]
		cols[i] = c.WithID(data.DeriveID(fmt.Sprint("copy", i), c.ID))
		cols[i].Name = fmt.Sprint(c.Name, "_", i)
	}
	return cols
}

// w1Frame is the shape of W1's feature frame at Kaggle scale 2, 4 000 × 40,
// whose records the codec handles on the pool; openmlFrame is the shape of
// every OpenML frame, 1 000 × 21, whose records stay on the caller.
func w1Frame() *data.Frame     { return data.MustNewFrame(codecColumns(40)...) }
func openmlFrame() *data.Frame { return openml.GenerateDataset(openml.Config{Seed: 1}) }

// atPoolWidth runs fn at the given pool width.
func atPoolWidth(width int, fn func()) {
	defer parallel.SetWorkers(parallel.SetWorkers(width))
	fn()
}

// wholeUpload is the upload body of one dataset that carries every column.
func wholeUpload(t testing.TB, f *data.Frame) []byte {
	t.Helper()
	return uploadBody(t, artifactUpload{
		ID: "0123456789abcdef0123456789abcdef", ColIDs: f.ColumnIDs(), Names: f.ColumnNames(), Columns: f.Columns(),
	})
}

// TestColumnCodecIsTheSameAtEveryWidth: an upload body and a download body
// are the same bytes at pool widths 1, 2 and 8, and decode to the same items
// and frames (floats compared by their bits: the Kaggle columns hold NaN) —
// for a frame whose records go on the pool and one whose stay on
// the caller.
func TestColumnCodecIsTheSameAtEveryWidth(t *testing.T) {
	for name, f := range map[string]*data.Frame{"w1": w1Frame(), "openml": openmlFrame()} {
		var up, down []byte
		var items []artifactUpload
		var frame graph.Artifact
		for _, width := range []int{1, 2, 8} {
			atPoolWidth(width, func() {
				u := wholeUpload(t, f)
				d, err := (&downloadResponse{Content: &graph.DatasetArtifact{Frame: f}}).marshal()
				if err != nil {
					t.Fatal(err)
				}
				var ur uploadRequest
				var dr downloadResponse
				if err := ur.unmarshal(u); err != nil {
					t.Fatal(err)
				}
				if err := dr.unmarshal(d); err != nil {
					t.Fatal(err)
				}
				if width == 1 {
					up, down, items, frame = u, d, ur.Items, dr.Content
					return
				}
				if !bytes.Equal(u, up) || !bytes.Equal(d, down) {
					t.Errorf("%s at width %d: the upload body (%d bytes) or the download (%d) differs from width 1's", name, width, len(u), len(d))
				}
				if !deepEqualItems(ur.Items, items) || !deepEqualColumns(frameOf(dr.Content).Columns(), frameOf(frame).Columns()) {
					t.Errorf("%s at width %d: decoded to other items or another frame than at width 1", name, width)
				}
			})
		}
		if !sameBits(frame, &graph.DatasetArtifact{Frame: f}) {
			t.Errorf("%s: the download decodes to another frame than was sent", name)
		}
	}
}

// deepEqualColumns is reflect.DeepEqual of two column lists with every float
// compared by its bits, so that NaN equals NaN.
func deepEqualColumns(a, b []*data.Column) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		if len(x.Floats) != len(y.Floats) {
			return false
		}
		for j := range x.Floats {
			if math.Float64bits(x.Floats[j]) != math.Float64bits(y.Floats[j]) {
				return false
			}
		}
		x.Floats, y.Floats = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// deepEqualItems compares decoded upload items as deepEqualColumns compares
// columns.
func deepEqualItems(a, b []artifactUpload) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !deepEqualColumns(x.Columns, y.Columns) {
			return false
		}
		x.Columns, y.Columns = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func frameOf(a graph.Artifact) *data.Frame { return a.(*graph.DatasetArtifact).Frame }

// corruptColumns flips a byte in the middle of each named column's record
// in body.
func corruptColumns(t *testing.T, f *data.Frame, body []byte, cols ...int) []byte {
	t.Helper()
	body = bytes.Clone(body)
	for _, i := range cols {
		record, err := tier.EncodeColumn(f.Columns()[i])
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(body, record)
		if at < 0 {
			t.Fatalf("column %d's record is not in the body", i)
		}
		body[at+len(record)/2] ^= 0x40
	}
	return body
}

// truncateIn cuts body in the middle of the named column's record.
func truncateIn(t *testing.T, f *data.Frame, body []byte, col int) []byte {
	t.Helper()
	record, err := tier.EncodeColumn(f.Columns()[col])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(body, record)
	if at < 0 {
		t.Fatalf("column %d's record is not in the body", col)
	}
	return body[:at+len(record)/2]
}

// TestRefusedBodyNamesItsFirstBadColumn: records decoded on the pool are
// refused with the failure a record-by-record read meets first. A body whose
// columns 1 and 3 are corrupt names column 1, and so does one whose column 1
// is corrupt and which ends inside a later record — at every width, whether
// the records are decoded on the pool (W1's frame, cut in its last record) or
// on the caller (cut in column 3).
func TestRefusedBodyNamesItsFirstBadColumn(t *testing.T) {
	f := w1Frame()
	body := wholeUpload(t, f)
	last := f.NumCols() - 1
	for name, bad := range map[string][]byte{
		"columns 1 and 3 corrupt":                  corruptColumns(t, f, body, 1, 3),
		"column 1 corrupt, cut in the last record": truncateIn(t, f, corruptColumns(t, f, body, 1), last),
		"column 1 corrupt, cut in column 3":        truncateIn(t, f, corruptColumns(t, f, body, 1), 3),
	} {
		for _, width := range []int{1, 2, 8} {
			atPoolWidth(width, func() {
				var up uploadRequest
				err := up.unmarshal(bad)
				if err == nil || !strings.Contains(err.Error(), ": column 1: ") {
					t.Errorf("%s, width %d: refused with %v, want the failure of column 1", name, width, err)
				}
			})
		}
	}
	// A truncation alone is a framing failure, reported as the serial read
	// reports it: without a column.
	cut := truncateIn(t, f, body, last)
	var up uploadRequest
	if err := up.unmarshal(cut); err == nil || strings.Contains(err.Error(), "column") {
		t.Errorf("a body cut in its last record: refused with %v, want a framing failure", err)
	}
}

// TestColumnCodecSpawnsHelpersAtWidth: on W1's frame, encoding and decoding
// its records are one pool call each, of one chunk per column, run on the
// caller plus width - 1 helpers — the same calls and chunks at width 1 and at
// width 4. An OpenML-shaped frame makes no pool call.
func TestColumnCodecSpawnsHelpersAtWidth(t *testing.T) {
	for _, c := range []struct {
		name  string
		f     *data.Frame
		calls int64
	}{{"w1", w1Frame(), 1}, {"openml", openmlFrame(), 0}} {
		body := wholeUpload(t, c.f)
		for step, run := range map[string]func(){
			"encode": func() { wholeUpload(t, c.f) },
			"decode": func() {
				var up uploadRequest
				if err := up.unmarshal(body); err != nil {
					t.Fatal(err)
				}
			},
		} {
			for _, width := range []int{1, 4} {
				before := parallel.ReadCounts()
				atPoolWidth(width, run)
				after := parallel.ReadCounts()
				calls, chunks := after.Calls-before.Calls, after.Chunks-before.Chunks
				helpers, denied := after.Helpers-before.Helpers, after.Denied-before.Denied
				if calls != c.calls || chunks != c.calls*int64(c.f.NumCols()) {
					t.Errorf("%s %s at width %d: %d pool calls of %d chunks, want %d of %d", c.name, step, width, calls, chunks, c.calls, c.calls*int64(c.f.NumCols()))
				}
				if helpers != c.calls*int64(width-1) || denied != 0 {
					t.Errorf("%s %s at width %d: %d helpers spawned, %d slots denied, want %d and 0", c.name, step, width, helpers, denied, c.calls*int64(width-1))
				}
			}
		}
	}
}

// BenchmarkColumnCodec is the measurement behind wideCells and wideBytes: a
// dataset's column records encoded and decoded in order on the caller
// ("inline") and one record per task on the pool ("wide"), from an
// OpenML-shaped frame (1 000 × 21) up to a Kaggle feature frame (4 000 × 40).
func BenchmarkColumnCodec(b *testing.B) {
	frames := []*data.Frame{openmlFrame()}
	for _, n := range []int{2, 4, 8, 12, 16, 24, 40} {
		frames = append(frames, data.MustNewFrame(codecColumns(n)...))
	}
	for _, f := range frames {
		cols := f.Columns()
		records := make([][]byte, len(cols))
		size := 0
		for i, c := range cols {
			records[i], _ = tier.EncodeColumn(c)
			size += len(records[i])
		}
		shape := fmt.Sprintf("%dx%d/%dKB", f.NumRows(), f.NumCols(), size>>10)
		for _, mode := range []string{"inline", "wide"} {
			wide := mode == "wide"
			b.Run(fmt.Sprintf("encode/%s/%s", shape, mode), func(b *testing.B) {
				out := make([][]byte, len(cols))
				for i := 0; i < b.N; i++ {
					eachRecord(len(cols), wide, func(j int) { out[j], _ = tier.EncodeColumn(cols[j]) })
				}
			})
			b.Run(fmt.Sprintf("decode/%s/%s", shape, mode), func(b *testing.B) {
				out := make([]*data.Column, len(records))
				for i := 0; i < b.N; i++ {
					eachRecord(len(records), wide, func(j int) { out[j], _ = tier.DecodeColumn(records[j]) })
				}
			})
		}
	}
}
