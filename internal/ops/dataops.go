package ops

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/graph"
)

// Select keeps the named columns, in order.
type Select struct{ Cols []string }

// Name implements graph.Operation.
func (o Select) Name() string { return "select" }

// Hash implements graph.Operation.
func (o Select) Hash() string { return graph.OpHash("select", strings.Join(o.Cols, ",")) }

// OutKind implements graph.Operation.
func (o Select) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Select) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.Select(o.Cols...))
}

// Drop removes the named columns.
type Drop struct{ Cols []string }

// Name implements graph.Operation.
func (o Drop) Name() string { return "drop" }

// Hash implements graph.Operation.
func (o Drop) Hash() string { return graph.OpHash("drop", strings.Join(o.Cols, ",")) }

// OutKind implements graph.Operation.
func (o Drop) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Drop) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.Drop(o.Cols...))
}

// Cmp names a comparison operator for Filter.
type Cmp string

// Comparison operators accepted by Filter.
const (
	GT Cmp = "gt"
	GE Cmp = "ge"
	LT Cmp = "lt"
	LE Cmp = "le"
	EQ Cmp = "eq"
	NE Cmp = "ne"
)

func (c Cmp) apply(a, b float64) bool {
	switch c {
	case GT:
		return a > b
	case GE:
		return a >= b
	case LT:
		return a < b
	case LE:
		return a <= b
	case EQ:
		return a == b
	case NE:
		return a != b
	default:
		return false
	}
}

// Filter keeps rows where Col <cmp> Value holds.
type Filter struct {
	Col   string
	Op    Cmp
	Value float64
}

// Name implements graph.Operation.
func (o Filter) Name() string { return "filter" }

// Hash implements graph.Operation.
func (o Filter) Hash() string {
	return graph.OpHash("filter", fmt.Sprintf("%s|%s|%g", o.Col, o.Op, o.Value))
}

// OutKind implements graph.Operation.
func (o Filter) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Filter) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.FilterFloat(o.Col, func(v float64) bool { return o.Op.apply(v, o.Value) }, o.Hash()))
}

// MapFn names a unary column function for MapCol.
type MapFn string

// Unary functions accepted by MapCol.
const (
	Log1p  MapFn = "log1p"
	Sqrt   MapFn = "sqrt"
	Square MapFn = "square"
	Abs    MapFn = "abs"
	Scale  MapFn = "scale" // multiply by Arg
	ClipLo MapFn = "cliplo"
	Negate MapFn = "negate"
	// ReplaceVal maps cells equal to Arg to NaN-safe zero (sentinel
	// cleanup, e.g. the Home-Credit DAYS_EMPLOYED anomaly).
	ReplaceVal MapFn = "replaceval"
)

func (fn MapFn) apply(v, arg float64) float64 {
	switch fn {
	case Log1p:
		if v < 0 {
			return 0
		}
		return math.Log1p(v)
	case Sqrt:
		if v < 0 {
			return 0
		}
		return math.Sqrt(v)
	case Square:
		return v * v
	case Abs:
		return math.Abs(v)
	case Scale:
		return v * arg
	case ClipLo:
		if v < arg {
			return arg
		}
		return v
	case Negate:
		return -v
	case ReplaceVal:
		if v == arg {
			return 0
		}
		return v
	default:
		return v
	}
}

// MapCol replaces Col with Fn(value, Arg) element-wise.
type MapCol struct {
	Col string
	Fn  MapFn
	Arg float64
}

// Name implements graph.Operation.
func (o MapCol) Name() string { return "map:" + string(o.Fn) }

// Hash implements graph.Operation.
func (o MapCol) Hash() string {
	return graph.OpHash("map", fmt.Sprintf("%s|%s|%g", o.Col, o.Fn, o.Arg))
}

// OutKind implements graph.Operation.
func (o MapCol) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o MapCol) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.MapFloat(o.Col, func(v float64) float64 { return o.Fn.apply(v, o.Arg) }, o.Hash()))
}

// DeriveFn names a row-wise combiner for Derive.
type DeriveFn string

// Combiners accepted by Derive.
const (
	Ratio   DeriveFn = "ratio"
	Diff    DeriveFn = "diff"
	Sum     DeriveFn = "sum"
	Product DeriveFn = "product"
	Mean    DeriveFn = "mean"
)

func (fn DeriveFn) apply(args []float64) float64 {
	switch fn {
	case Ratio:
		if len(args) < 2 || args[1] == 0 {
			return 0
		}
		return args[0] / args[1]
	case Diff:
		if len(args) < 2 {
			return 0
		}
		return args[0] - args[1]
	case Sum:
		var s float64
		for _, v := range args {
			s += v
		}
		return s
	case Product:
		p := 1.0
		for _, v := range args {
			p *= v
		}
		return p
	case Mean:
		if len(args) == 0 {
			return 0
		}
		var s float64
		for _, v := range args {
			s += v
		}
		return s / float64(len(args))
	default:
		return 0
	}
}

// Derive appends column Out = Fn(Inputs...) computed row-wise.
type Derive struct {
	Out    string
	Inputs []string
	Fn     DeriveFn
}

// Name implements graph.Operation.
func (o Derive) Name() string { return "derive:" + o.Out }

// Hash implements graph.Operation.
func (o Derive) Hash() string {
	return graph.OpHash("derive", fmt.Sprintf("%s|%s|%s", o.Out, strings.Join(o.Inputs, ","), o.Fn))
}

// OutKind implements graph.Operation.
func (o Derive) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Derive) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.DeriveFloat(o.Out, o.Inputs, o.Fn.apply, graph.OpHash("derive", string(o.Fn))))
}

// FillNA replaces missing values with column means in the named columns
// (all float columns when empty).
type FillNA struct{ Cols []string }

// Name implements graph.Operation.
func (o FillNA) Name() string { return "fillna" }

// Hash implements graph.Operation.
func (o FillNA) Hash() string { return graph.OpHash("fillna", strings.Join(o.Cols, ",")) }

// OutKind implements graph.Operation.
func (o FillNA) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o FillNA) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.FillNA(o.Hash(), o.Cols...))
}

// OneHot expands a categorical string column into indicator columns.
type OneHot struct{ Col string }

// Name implements graph.Operation.
func (o OneHot) Name() string { return "onehot" }

// Hash implements graph.Operation.
func (o OneHot) Hash() string { return graph.OpHash("onehot", o.Col) }

// OutKind implements graph.Operation.
func (o OneHot) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o OneHot) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.OneHot(o.Col, o.Hash()))
}

// Sample draws N rows without replacement using Seed.
type Sample struct {
	N    int
	Seed int64
}

// Name implements graph.Operation.
func (o Sample) Name() string { return "sample" }

// Hash implements graph.Operation.
func (o Sample) Hash() string { return graph.OpHash("sample", fmt.Sprintf("%d|%d", o.N, o.Seed)) }

// OutKind implements graph.Operation.
func (o Sample) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Sample) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	n := o.N
	if n > f.NumRows() {
		n = f.NumRows()
	}
	rng := rand.New(rand.NewSource(o.Seed))
	idx := rng.Perm(f.NumRows())[:n]
	sort.Ints(idx)
	return &graph.DatasetArtifact{Frame: f.Gather(idx, o.Hash())}, nil
}

// GroupByAgg groups by Key and computes the aggregates.
type GroupByAgg struct {
	Key  string
	Aggs []data.Agg
}

// Name implements graph.Operation.
func (o GroupByAgg) Name() string { return "groupby:" + o.Key }

// Hash implements graph.Operation.
func (o GroupByAgg) Hash() string {
	var b strings.Builder
	b.WriteString(o.Key)
	for _, a := range o.Aggs {
		fmt.Fprintf(&b, "|%s:%s", a.Col, a.Kind)
	}
	return graph.OpHash("groupby", b.String())
}

// OutKind implements graph.Operation.
func (o GroupByAgg) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o GroupByAgg) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(f.GroupBy(o.Key, o.Aggs, o.Hash()))
}

// Join merges two datasets on Key (multi-input; use DAG.Combine).
type Join struct {
	Key  string
	Kind data.JoinKind
}

// Name implements graph.Operation.
func (o Join) Name() string { return "join:" + o.Key }

// Hash implements graph.Operation.
func (o Join) Hash() string { return graph.OpHash("join", fmt.Sprintf("%s|%d", o.Key, o.Kind)) }

// OutKind implements graph.Operation.
func (o Join) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation. Inputs arrive as [left, right].
func (o Join) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	l, r, err := twoFrames("join", inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(l.Join(r, o.Key, o.Kind, o.Hash()))
}

// Concat concatenates the columns of the inputs (multi-input).
type Concat struct{}

// Name implements graph.Operation.
func (o Concat) Name() string { return "concat" }

// Hash implements graph.Operation.
func (o Concat) Hash() string { return graph.OpHash("concat", "") }

// OutKind implements graph.Operation.
func (o Concat) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o Concat) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	in, err := frames("concat", inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(in[0].ConcatColumns(in[1:]...))
}

// AlignSide selects which aligned output an Align operation yields.
type AlignSide uint8

// Align output sides.
const (
	LeftSide AlignSide = iota
	RightSide
)

// Align removes columns not shared by both inputs and returns one side
// (the paper's alignment operation re-implemented to return a single
// artifact per §7.2; build one Align per side).
type Align struct{ Side AlignSide }

// Name implements graph.Operation.
func (o Align) Name() string { return fmt.Sprintf("align:%d", o.Side) }

// Hash implements graph.Operation.
func (o Align) Hash() string { return graph.OpHash("align", fmt.Sprintf("%d", o.Side)) }

// OutKind implements graph.Operation.
func (o Align) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation. Inputs arrive as [left, right].
func (o Align) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	l, r, err := twoFrames("align", inputs)
	if err != nil {
		return nil, err
	}
	la, ra, err := data.Align(l, r)
	if o.Side == LeftSide {
		return asDataset(la, err)
	}
	return asDataset(ra, err)
}

// AggregateCol reduces a column to a scalar Aggregate vertex.
type AggregateCol struct {
	Col  string
	Kind data.AggKind
}

// Name implements graph.Operation.
func (o AggregateCol) Name() string { return "agg:" + o.Kind.String() }

// Hash implements graph.Operation.
func (o AggregateCol) Hash() string {
	return graph.OpHash("aggcol", fmt.Sprintf("%s|%s", o.Col, o.Kind))
}

// OutKind implements graph.Operation.
func (o AggregateCol) OutKind() graph.Kind { return graph.AggregateKind }

// Run implements graph.Operation.
func (o AggregateCol) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	c := f.Column(o.Col)
	if c == nil {
		return nil, fmt.Errorf("ops: agg: no column %q", o.Col)
	}
	var v float64
	switch o.Kind {
	case data.AggCount:
		v = float64(c.Len())
	default:
		sum, n := 0.0, 0
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := 0; i < c.Len(); i++ {
			if c.IsMissing(i) {
				continue
			}
			x := c.Float(i)
			sum += x
			n++
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		switch o.Kind {
		case data.AggSum:
			v = sum
		case data.AggMean:
			if n > 0 {
				v = sum / float64(n)
			}
		case data.AggMin:
			v = mn
		case data.AggMax:
			v = mx
		}
	}
	return &graph.AggregateArtifact{Value: v, Text: fmt.Sprintf("%s(%s)=%g", o.Kind, o.Col, v)}, nil
}
