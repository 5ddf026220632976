package graph

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"testing"

	"repro/internal/ml"
)

// oldShapeForest is the gob encoding, as an Artifact, of a ModelArtifact
// holding a one-tree random forest, written when ml.DecisionTree still had
// its Classification field (set to true here): what a collabd of that
// version has on disk and what a client of that version uploads.
const oldShapeForest = "VRAAFCpncmFwaC5Nb2RlbEFydGlmYWN0fwMBAQ1Nb2RlbEFydGlmYWN0Af+AAAEDAQVNb2RlbAEQAAEHUXVhbGl0eQEIAAEIRmVhdHVyZXMB/4IAAAAW/4ECAQEIW11zdHJpbmcB/4IAAQwAAP4Bh/+AaAEQKm1sLlJhbmRvbUZvcmVzdP+DAwEBDFJhbmRvbUZvcmVzdAH/hAABBQEGTlRyZWVzAQQAAQhNYXhEZXB0aAEEAAELTWF4RmVhdHVyZXMBBAABBFNlZWQBBAABBVRyZWVzAf+KAAAAIf+JAgEBEltdKm1sLkRlY2lzaW9uVHJlZQH/igAB/4YAAGL/hQMBAv+GAAEGAQhNYXhEZXB0aAEEAAEOTWluU2FtcGxlc0xlYWYBBAABC01heEZlYXR1cmVzAQQAAQ5DbGFzc2lmaWNhdGlvbgECAAEEU2VlZAEEAAEEUm9vdAH/iAAAAE//hwMBAQhUcmVlTm9kZQH/iAABBQEHRmVhdHVyZQEEAAEJVGhyZXNob2xkAQgAAQVWYWx1ZQEIAAEETGVmdAH/iAABBVJpZ2h0Af+IAAAARv+EOAECAQQBAgEGAQEBBAEEAQIBAQEOAQECAf7gPwH4mpmZmZmZ2T8BAQEC/tA/AAEBAQL+6D8AAAAAAf7gPwECAWEBYgA="

// TestTreeOfTheOldShapeStillDecodes: gob drops a field the receiver lacks,
// so a stored or uploaded tree that carries Classification decodes into
// today's DecisionTree with everything else in place.
func TestTreeOfTheOldShapeStillDecodes(t *testing.T) {
	RegisterGobTypes()
	raw, err := base64.StdEncoding.DecodeString(oldShapeForest)
	if err != nil {
		t.Fatal(err)
	}
	var a Artifact
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&a); err != nil {
		t.Fatal(err)
	}
	ma, ok := a.(*ModelArtifact)
	if !ok {
		t.Fatalf("decoded a %T", a)
	}
	rf, ok := ma.Model.(*ml.RandomForest)
	if !ok || len(rf.Trees) != 1 {
		t.Fatalf("decoded model %#v", ma.Model)
	}
	tree := rf.Trees[0]
	if tree.MaxDepth != 2 || tree.MinSamplesLeaf != 2 || tree.MaxFeatures != 1 || tree.Seed != 7 {
		t.Errorf("decoded tree parameters %+v", *tree)
	}
	if got := rf.Predict([][]float64{{0, 0.5}, {0, 0.6}}); got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("decoded forest predicts %v, want [0.25 0.75]", got)
	}
}
