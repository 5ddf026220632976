package tier

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenColumns is modeColumns and a string dictionary of 65 537 entries,
// whose codes take 4 bytes: one column of every mode and code width. The
// entries are "" and then every two-byte string, the shortest distinct ones.
func goldenColumns() []*data.Column {
	wide := make([]string, 1<<16+1)
	for i := range wide[1:] {
		wide[i+1] = string([]byte{byte(i >> 8), byte(i)})
	}
	return append(modeColumns(), data.NewDictColumn("d32", wide, []uint32{1 << 16, 0}))
}

// goldenBlobs is one blob of every learner, the aggregate, and both forms of
// a dataset without columns.
func goldenBlobs() map[string]graph.Artifact {
	blobs := learnerBlobs()
	edge := edgeBlobs()
	blobs["no frame"], blobs["no columns"] = edge["no frame"], edge["no columns"]
	return blobs
}

// checkGolden compares b with testdata/golden/name, or rewrites that file
// under -update, and returns the golden bytes.
func checkGolden(t *testing.T, name string, b []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("%s: %d bytes written, the golden holds %d; they differ", name, len(b), len(want))
	}
	return want
}

// TestRecordsMatchTheirGoldens pins the bytes of the column record (CTC2) and
// the blob file (CTB2): the goldens were written by the codecs as they stood
// before they shared a toolkit, and the codec must still write the same
// bytes for the same content and read them back to it.
func TestRecordsMatchTheirGoldens(t *testing.T) {
	for _, c := range goldenColumns() {
		enc, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		golden := checkGolden(t, "ctc2-"+c.Name+".bin", enc)
		got, err := DecodeColumn(golden)
		if err != nil || !sameColumn(got, c) {
			t.Errorf("%s: the golden decodes to another column (%v)", c.Name, err)
		}
	}
	blobs := goldenBlobs()
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		enc, err := encodeBlob(name, blobs[name])
		if err != nil {
			t.Fatal(err)
		}
		golden := checkGolden(t, "ctb2-"+name+".bin", enc)
		vid, got, err := decodeBlob(golden)
		if err != nil || vid != name || !equalBits(got, blobs[name]) {
			t.Errorf("%s: the golden decodes to %q %+v (%v)", name, vid, got, err)
		}
	}
}
