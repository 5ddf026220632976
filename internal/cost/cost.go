// Package cost models artifact load costs (the paper's Cl(v), §5.2). The
// load cost depends on the artifact size and on where the Experiment Graph
// resides — in memory, on disk, or on a remote store — which is what lets
// the materializer and reuse planner adapt to the deployment (§5.2: "taking
// the load cost into account enables us to adapt ... to different system
// architecture types and storage unit types").
package cost

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Profile describes one storage location for EG artifact content.
type Profile struct {
	// Name labels the profile ("memory", "disk", "remote").
	Name string
	// Latency is the fixed per-retrieval cost.
	Latency time.Duration
	// BytesPerSecond is the retrieval bandwidth.
	BytesPerSecond float64
}

// LoadCost returns Cl for an artifact of the given size under the profile.
// Negative sizes price as zero bytes; costs that would overflow
// time.Duration saturate at the maximum representable duration instead of
// wrapping negative (a wrapped Cl would make every reuse look free).
func (p Profile) LoadCost(sizeBytes int64) time.Duration {
	if sizeBytes < 0 {
		sizeBytes = 0
	}
	if p.BytesPerSecond <= 0 {
		return p.Latency
	}
	const maxDuration = time.Duration(math.MaxInt64)
	transferSec := float64(sizeBytes) / p.BytesPerSecond
	if transferSec >= (maxDuration - p.Latency).Seconds() {
		return maxDuration
	}
	return p.Latency + time.Duration(transferSec*float64(time.Second))
}

// profileSpec is the JSON shape for profiles exchanged with operators
// (collabd -profile FILE, collab calibration -fit). Durations are strings
// ("3ms") so the files stay human-editable.
type profileSpec struct {
	Name           string  `json:"name"`
	Latency        string  `json:"latency"`
	BytesPerSecond float64 `json:"bytes_per_second"`
}

// EncodeProfileJSON renders a profile as indented JSON ending in a newline.
func EncodeProfileJSON(p Profile) ([]byte, error) {
	spec := profileSpec{
		Name:           p.Name,
		Latency:        p.Latency.String(),
		BytesPerSecond: p.BytesPerSecond,
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseProfileJSON decodes a profile written by EncodeProfileJSON (or by
// hand). Latency must parse as a Go duration; bandwidth may be zero for a
// latency-only profile but not negative.
func ParseProfileJSON(data []byte) (Profile, error) {
	var spec profileSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Profile{}, fmt.Errorf("cost: parse profile: %w", err)
	}
	lat, err := time.ParseDuration(spec.Latency)
	if err != nil {
		return Profile{}, fmt.Errorf("cost: parse profile latency %q: %w", spec.Latency, err)
	}
	if lat < 0 {
		return Profile{}, fmt.Errorf("cost: profile latency %v is negative", lat)
	}
	if spec.BytesPerSecond < 0 {
		return Profile{}, fmt.Errorf("cost: profile bandwidth %v is negative", spec.BytesPerSecond)
	}
	return Profile{Name: spec.Name, Latency: lat, BytesPerSecond: spec.BytesPerSecond}, nil
}

// Memory is an in-process EG: near-zero latency, very high bandwidth.
// Matches the paper's evaluation setup ("EG is inside the memory of the
// machine, load times are generally low").
func Memory() Profile {
	return Profile{Name: "memory", Latency: 20 * time.Microsecond, BytesPerSecond: 8 << 30}
}

// Disk is an EG persisted on local SSD.
func Disk() Profile {
	return Profile{Name: "disk", Latency: 3 * time.Millisecond, BytesPerSecond: 500 << 20}
}

// Remote is an EG behind a network hop.
func Remote() Profile {
	return Profile{Name: "remote", Latency: 40 * time.Millisecond, BytesPerSecond: 100 << 20}
}
