package ops

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// numericFeatureNames lists the numeric columns of f excluding the label.
func numericFeatureNames(f *data.Frame, label string) []string {
	var out []string
	for _, c := range f.Columns() {
		if c.Name != label && c.Type.IsNumeric() {
			out = append(out, c.Name)
		}
	}
	return out
}

// matrixColumn returns column j of the row-major matrix m.
func matrixColumn(m [][]float64, j int) []float64 {
	vals := make([]float64, len(m))
	for i := range m {
		vals[i] = m[i][j]
	}
	return vals
}

// project fits tr on the numeric columns of f but label and returns its
// transform of them as float columns named prefix0..prefixD-1, their IDs
// derived from opHash, the column index and the joined lineage of the
// input columns, followed by the label column when f has one.
func project(f *data.Frame, label string, tr ml.Transformer, prefix, opHash string) (*data.Frame, error) {
	m, used := f.NumericMatrix(numericFeatureNames(f, label)...)
	var ids strings.Builder
	for _, n := range used {
		ids.WriteString(f.Column(n).ID)
	}
	lineage := ids.String()
	if err := tr.Fit(m, nil); err != nil {
		return nil, err
	}
	m = tr.Transform(m)
	var cols []*data.Column
	if len(m) > 0 {
		cols = make([]*data.Column, len(m[0]))
	}
	for j := range cols {
		cols[j] = &data.Column{
			ID:     data.DeriveID(fmt.Sprintf("%s|%d", opHash, j), lineage),
			Name:   fmt.Sprintf("%s%d", prefix, j),
			Type:   data.Float64,
			Floats: matrixColumn(m, j),
		}
	}
	out, err := data.NewFrame(cols...)
	if err != nil || label == "" || !f.HasColumn(label) {
		return out, err
	}
	return out.ConcatColumns(data.MustNewFrame(f.Column(label)))
}

// CountVectorize converts a string column into token-count features
// (Listing 1's CountVectorizer). Output columns are named "cv_<token>".
type CountVectorize struct {
	Col         string
	MaxFeatures int
}

// Name implements graph.Operation.
func (o CountVectorize) Name() string { return "count_vectorize" }

// Hash implements graph.Operation.
func (o CountVectorize) Hash() string {
	return graph.OpHash("count_vectorize", fmt.Sprintf("%s|%d", o.Col, o.MaxFeatures))
}

// OutKind implements graph.Operation.
func (o CountVectorize) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o CountVectorize) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	c := f.Column(o.Col)
	if c == nil || c.Type != data.String {
		return nil, fmt.Errorf("ops: count_vectorize: need string column %q", o.Col)
	}
	v := &ml.CountVectorizer{MaxFeatures: o.MaxFeatures}
	m := v.FitTransform(c.StringValues())
	cols := make([]*data.Column, len(v.Tokens))
	for j, tok := range v.Tokens {
		cols[j] = &data.Column{
			ID:     data.DeriveID(o.Hash()+"\x01"+tok, c.ID),
			Name:   "cv_" + tok,
			Type:   data.Float64,
			Floats: matrixColumn(m, j),
		}
	}
	return asDataset(data.NewFrame(cols...))
}

// ScalerKind selects the scaling transform of ScaleFit.
type ScalerKind string

// Supported scaler kinds.
const (
	StdScaler    ScalerKind = "std"
	MinMaxScaler ScalerKind = "minmax"
)

// ScaleTransform fit-and-transforms the numeric columns (excluding Label,
// which is carried through unchanged so downstream training still sees it).
type ScaleTransform struct {
	Kind  ScalerKind
	Label string
}

// Name implements graph.Operation.
func (o ScaleTransform) Name() string { return "scale:" + string(o.Kind) }

// Hash implements graph.Operation.
func (o ScaleTransform) Hash() string {
	return graph.OpHash("scale", fmt.Sprintf("%s|%s", o.Kind, o.Label))
}

// OutKind implements graph.Operation.
func (o ScaleTransform) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o ScaleTransform) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	names := numericFeatureNames(f, o.Label)
	m, _ := f.NumericMatrix(names...)
	var tr ml.Transformer
	if o.Kind == MinMaxScaler {
		tr = &ml.MinMaxScaler{}
	} else {
		tr = &ml.StandardScaler{}
	}
	if err := tr.Fit(m, nil); err != nil {
		return nil, err
	}
	scaled := tr.Transform(m)
	out := f
	for j, name := range names {
		nc := &data.Column{
			ID:     data.DeriveID(o.Hash(), f.Column(name).ID),
			Name:   name,
			Type:   data.Float64,
			Floats: matrixColumn(scaled, j),
		}
		if out, err = out.WithColumn(nc); err != nil {
			return nil, err
		}
	}
	return &graph.DatasetArtifact{Frame: out}, nil
}

// SelectKBest keeps the K numeric features most correlated with Label,
// plus the label column itself. Selected columns are shared with the input
// (pure projection), which the storage-aware materializer exploits.
type SelectKBest struct {
	K     int
	Label string
}

// Name implements graph.Operation.
func (o SelectKBest) Name() string { return fmt.Sprintf("select_k_best:%d", o.K) }

// Hash implements graph.Operation.
func (o SelectKBest) Hash() string {
	return graph.OpHash("select_k_best", fmt.Sprintf("%d|%s", o.K, o.Label))
}

// OutKind implements graph.Operation.
func (o SelectKBest) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o SelectKBest) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	y, err := labelOf("select_k_best", f, o.Label)
	if err != nil {
		return nil, err
	}
	names := numericFeatureNames(f, o.Label)
	m, _ := f.NumericMatrix(names...)
	sel := &ml.SelectKBest{K: o.K}
	if err := sel.Fit(m, y); err != nil {
		return nil, err
	}
	keep := make([]string, 0, len(sel.Indices)+1)
	for _, j := range sel.Indices {
		keep = append(keep, names[j])
	}
	keep = append(keep, o.Label)
	return asDataset(f.Select(keep...))
}

// PCATransform projects numeric features (excluding Label) onto K principal
// components named "pc0..pcK-1", carrying the label through.
type PCATransform struct {
	K     int
	Label string
}

// Name implements graph.Operation.
func (o PCATransform) Name() string { return fmt.Sprintf("pca:%d", o.K) }

// Hash implements graph.Operation.
func (o PCATransform) Hash() string {
	return graph.OpHash("pca", fmt.Sprintf("%d|%s", o.K, o.Label))
}

// OutKind implements graph.Operation.
func (o PCATransform) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o PCATransform) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(project(f, o.Label, &ml.PCA{K: o.K}, "pc", o.Hash()))
}

// KMeansTransform clusters the numeric features (excluding Label) into K
// groups and replaces them with K distance-to-centroid features named
// "km0..kmK-1", carrying the label through — an unsupervised feature
// transform in the spirit of sklearn's KMeans-as-featurizer.
type KMeansTransform struct {
	K     int
	Label string
	Seed  int64
}

// Name implements graph.Operation.
func (o KMeansTransform) Name() string { return fmt.Sprintf("kmeans:%d", o.K) }

// Hash implements graph.Operation.
func (o KMeansTransform) Hash() string {
	return graph.OpHash("kmeans", fmt.Sprintf("%d|%s|%d", o.K, o.Label, o.Seed))
}

// OutKind implements graph.Operation.
func (o KMeansTransform) OutKind() graph.Kind { return graph.DatasetKind }

// Run implements graph.Operation.
func (o KMeansTransform) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	return asDataset(project(f, o.Label, ml.NewKMeans(o.K, o.Seed), "km", o.Hash()))
}

// KDE2D computes a bivariate kernel-density estimate of two columns over a
// GridSize×GridSize grid and returns its total density as an Aggregate. It
// models Workload 1's "external and compute-intensive visualization
// command" (§7.2): External() is true, so the updater never materializes
// its output and repeated runs must re-execute it.
type KDE2D struct {
	ColX, ColY string
	GridSize   int
	Bandwidth  float64
}

// Name implements graph.Operation.
func (o KDE2D) Name() string { return "kde2d" }

// Hash implements graph.Operation.
func (o KDE2D) Hash() string {
	return graph.OpHash("kde2d", fmt.Sprintf("%s|%s|%d|%g", o.ColX, o.ColY, o.GridSize, o.Bandwidth))
}

// OutKind implements graph.Operation.
func (o KDE2D) OutKind() graph.Kind { return graph.AggregateKind }

// External marks the result as non-materializable (third-party output the
// optimizer is oblivious to, §4.2 "Integration Limitations").
func (o KDE2D) External() bool { return true }

// Run implements graph.Operation. A row with a missing or non-finite
// coordinate is left out of the estimate. The isotropic Gaussian factors,
// exp(−(dx²+dy²)/2h²) = exp(−dx²/2h²)·exp(−dy²/2h²), so each grid line holds
// one kernel row per axis — 2·grid·rows exponentials, not grid²·rows — and a
// cell's density is the dot product of its two rows, summed over the rows
// in order. One grid line of cells is one task of the shared pool, and the
// cells are added up in gx-major order, so the aggregate is the same at
// every pool width.
func (o KDE2D) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	f, err := oneFrame(inputs)
	if err != nil {
		return nil, err
	}
	cx, cy := f.Column(o.ColX), f.Column(o.ColY)
	if cx == nil || cy == nil {
		return nil, fmt.Errorf("ops: kde2d: missing column %q or %q", o.ColX, o.ColY)
	}
	grid := o.GridSize
	if grid == 0 {
		grid = 32
	}
	if grid < 2 {
		return nil, fmt.Errorf("ops: kde2d: grid size %d, want at least 2", grid)
	}
	bw := o.Bandwidth
	if bw == 0 {
		bw = 1
	}
	xs, ys := finitePairs(cx, cy)
	minX, spanX := axisRange(xs)
	minY, spanY := axisRange(ys)
	inv := 1 / (2 * bw * bw)
	// ky[gy*n+i] is row i's kernel factor along y at grid line gy, kept for
	// every line (grid × the rows' floats); the x factors of one grid line
	// are computed by the task that owns it.
	n := len(xs)
	ky := make([]float64, grid*n)
	for gy := 0; gy < grid; gy++ {
		kernelRow(ky[gy*n:(gy+1)*n], ys, minY+spanY*float64(gy)/float64(grid-1), spanY, inv)
	}
	dens := make([]float64, grid*grid)
	parallel.For(grid, 1, func(lo, hi int) {
		kx := make([]float64, n)
		for gx := lo; gx < hi; gx++ {
			kernelRow(kx, xs, minX+spanX*float64(gx)/float64(grid-1), spanX, inv)
			for gy := 0; gy < grid; gy++ {
				k := ky[gy*n : (gy+1)*n]
				var d float64
				for i, v := range kx {
					d += v * k[i]
				}
				dens[gx*grid+gy] = d
			}
		}
	})
	var total float64
	for _, d := range dens {
		total += d
	}
	return &graph.AggregateArtifact{Value: total, Text: "kde2d"}, nil
}

// finitePairs reads the rows where both columns hold a finite value.
func finitePairs(cx, cy *data.Column) (xs, ys []float64) {
	n := cx.Len()
	xs, ys = make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, y := cx.Float(i), cy.Float(i)
		if !finite(x) || !finite(y) {
			continue
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// axisRange returns the least value and the span of vals, a span of 1 when
// vals hold fewer than two distinct values.
func axisRange(vals []float64) (lo, span float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if span = hi - lo; span <= 0 {
		span = 1
	}
	return lo, span
}

// kernelRow writes exp(−((v − p) / span)² · inv) for each of vals into out:
// one axis's factor of the Gaussian at grid line p.
func kernelRow(out, vals []float64, p, span, inv float64) {
	for i, v := range vals {
		d := (v - p) / span
		out[i] = math.Exp(-(d * d) * inv)
	}
}
