package store

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
)

// TestColumnViewsAreFilledOnce: the memory tier keeps a column in the form
// it arrived in. An uploaded record is what a transfer writes, byte for
// byte, and the first in-process Get decodes it for every later Get to
// share, however many ask at once (run it with -race); a column an
// in-process Put stored is what Get returns, and a transfer writes its
// record.
func TestColumnViewsAreFilledOnce(t *testing.T) {
	up := data.NewFloatColumn("up", []float64{1.5, 2.5, 3.5})
	in := data.NewIntColumn("in", []int64{1, 2, 3})
	m := New(cost.Memory())
	records := recordsOf(t, []*data.Column{up})
	if err := m.PutFrameRef("uploaded", []string{up.ID}, []string{"up"}, records); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("put", &graph.DatasetArtifact{Frame: data.MustNewFrame(in)}); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	decoded := make([]*data.Column, readers)
	encoded := make([]*Records, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if a, _ := m.Get("uploaded"); a != nil {
				decoded[i] = a.(*graph.DatasetArtifact).Frame.Columns()[0]
			}
			encoded[i], _ = m.PeekRecords("put")
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if decoded[i] == nil || encoded[i] == nil {
			t.Fatalf("reader %d found nothing", i)
		}
		if &decoded[i].Floats[0] != &decoded[0].Floats[0] {
			t.Fatalf("reader %d got a decoded view of its own: the record was decoded twice", i)
		}
	}
	if !sameArtifact(&graph.DatasetArtifact{Frame: data.MustNewFrame(decoded[0])}, &graph.DatasetArtifact{Frame: data.MustNewFrame(up)}) {
		t.Error("the decoded view is not the uploaded column")
	}
	if r, _ := m.PeekRecords("uploaded"); r == nil || &r.Columns[0].Bytes()[0] != &records[0].Bytes()[0] {
		t.Error("a transfer of the uploaded frame does not write the uploaded record")
	}
	if a, _ := m.Get("put"); a == nil || a.(*graph.DatasetArtifact).Frame.Columns()[0] != in {
		t.Error("Get of a Put frame does not return the column Put stored")
	}
	want := recordsOf(t, []*data.Column{in})[0].Bytes()
	if got := encoded[0].Columns[0].Bytes(); !bytes.Equal(got, want) {
		t.Error("a transfer of a Put frame does not write the record of the column Put stored")
	}
}
