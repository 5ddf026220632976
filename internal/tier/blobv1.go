package tier

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/graph"
)

// The payload of a version-1 blob file is the gob of one blobEnvelope, so
// the concrete artifact and model types must be registered to read it.
func init() { graph.RegisterGobTypes() }

// blobEnvelope wraps the Artifact interface for gob.
type blobEnvelope struct {
	Content graph.Artifact
}

// decodeBlobV1 reads the gob payload of a version-1 blob file, as it was
// written before the blob record: one blobEnvelope and nothing after it.
func decodeBlobV1(p []byte) (graph.Artifact, error) {
	r := bytes.NewReader(p)
	var env blobEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: blob gob: %v", ErrCorrupt, err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%w: %d bytes after the blob", ErrCorrupt, r.Len())
	}
	if env.Content == nil {
		return nil, fmt.Errorf("%w: empty blob", ErrCorrupt)
	}
	return env.Content, nil
}
