package ops

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// SortBy orders rows by a column.
type SortBy struct {
	Col  string
	Desc bool
}

// Name implements graph.Operation.
func (o SortBy) Name() string { return "sort:" + o.Col }

// Hash implements graph.Operation.
func (o SortBy) Hash() string { return graph.OpHash("sort", fmt.Sprintf("%s|%t", o.Col, o.Desc)) }

// OutKind implements graph.Operation.
func (o SortBy) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o SortBy) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.SortBy(o.Col, o.Desc, o.Hash()))
}

// Distinct keeps the first row per distinct combination of Cols (all
// columns when empty).
type Distinct struct{ Cols []string }

// Name implements graph.Operation.
func (o Distinct) Name() string { return "distinct" }

// Hash implements graph.Operation.
func (o Distinct) Hash() string { return graph.OpHash("distinct", strings.Join(o.Cols, ",")) }

// OutKind implements graph.Operation.
func (o Distinct) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Distinct) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.Distinct(o.Hash(), o.Cols...))
}

// AppendRows stacks the second input's rows under the first's
// (multi-input; use DAG.Combine).
type AppendRows struct{}

// Name implements graph.Operation.
func (o AppendRows) Name() string { return "append_rows" }

// Hash implements graph.Operation.
func (o AppendRows) Hash() string { return graph.OpHash("append_rows", "") }

// OutKind implements graph.Operation.
func (o AppendRows) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation. Inputs arrive as [top, bottom].
func (o AppendRows) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	top, bottom, err := twoFrames("append_rows", inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(top.AppendRows(bottom, o.Hash()))
}

// Bin replaces Col with its equal-frequency quantile-bin index in
// [0, Bins).
type Bin struct {
	Col  string
	Bins int
}

// Name implements graph.Operation.
func (o Bin) Name() string { return fmt.Sprintf("bin:%d", o.Bins) }

// Hash implements graph.Operation.
func (o Bin) Hash() string { return graph.OpHash("bin", fmt.Sprintf("%s|%d", o.Col, o.Bins)) }

// OutKind implements graph.Operation.
func (o Bin) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Bin) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.Bin(o.Col, o.Bins, o.Hash()))
}

// RollingMean appends Out = trailing mean of Col over Window rows.
type RollingMean struct {
	Col    string
	Out    string
	Window int
}

// Name implements graph.Operation.
func (o RollingMean) Name() string { return "rolling_mean:" + o.Out }

// Hash implements graph.Operation.
func (o RollingMean) Hash() string {
	return graph.OpHash("rolling_mean", fmt.Sprintf("%s|%s|%d", o.Col, o.Out, o.Window))
}

// OutKind implements graph.Operation.
func (o RollingMean) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o RollingMean) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.RollingMean(o.Col, o.Out, o.Window, graph.OpHash("rolling_mean", strconv.Itoa(o.Window))))
}
