package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// refKDE2D is the loop KDE2D.Run claims to be bit for bit: one goroutine,
// cell by cell, the rows in order, the coordinates read and both kernel
// factors computed again for every cell — exp(−dx²/2h²)·exp(−dy²/2h²), the
// Gaussian factored as Run factors it — on a grid of at least 2 and columns
// without missing cells.
func refKDE2D(cx, cy *data.Column, grid int, bw float64) float64 {
	return serialKDE2D(cx, cy, grid, bw, func(dx, dy, inv float64) float64 {
		return math.Exp(-(dx*dx)*inv) * math.Exp(-(dy*dy)*inv)
	})
}

// directKDE2D is the loop KDE2D.Run had before it factored the Gaussian:
// refKDE2D with one exponential of the squared distance per cell and row,
// exp(−(dx²+dy²)/2h²). The factored kernel rounds differently, so Run only
// comes close to it.
func directKDE2D(cx, cy *data.Column, grid int, bw float64) float64 {
	return serialKDE2D(cx, cy, grid, bw, func(dx, dy, inv float64) float64 {
		return math.Exp(-(dx*dx + dy*dy) * inv)
	})
}

// serialKDE2D sums kernel(dx, dy, 1/2h²) over the grid's cells in gx-major
// order and, within a cell, over the rows in order; dx and dy are a row's
// distances to the cell along each axis, in units of the axis's span.
func serialKDE2D(cx, cy *data.Column, grid int, bw float64, kernel func(dx, dy, inv float64) float64) float64 {
	columnRange := func(c *data.Column) (float64, float64) {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := 0; i < c.Len(); i++ {
			if c.IsMissing(i) {
				continue
			}
			v := c.Float(i)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mn, mx
	}
	minX, maxX := columnRange(cx)
	minY, maxY := columnRange(cy)
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	var total float64
	inv := 1 / (2 * bw * bw)
	n := cx.Len()
	for gx := 0; gx < grid; gx++ {
		px := minX + spanX*float64(gx)/float64(grid-1)
		for gy := 0; gy < grid; gy++ {
			py := minY + spanY*float64(gy)/float64(grid-1)
			var dens float64
			for i := 0; i < n; i++ {
				dens += kernel((cx.Float(i)-px)/spanX, (cy.Float(i)-py)/spanY, inv)
			}
			total += dens
		}
	}
	return total
}

// kdeFrame is W1's KDE input in shape: an EXT_SOURCE_2-like score in [0, 1)
// and a DAYS_BIRTH-like age in days.
func kdeFrame(seed int64, rows int) *data.Frame {
	rng := rand.New(rand.NewSource(seed))
	x, y := make([]float64, rows), make([]float64, rows)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = -(20 + rng.Float64()*45) * 365
	}
	return data.MustNewFrame(data.NewFloatColumn("x", x), data.NewFloatColumn("y", y))
}

func kdeAt(t testing.TB, width int, op KDE2D, f *data.Frame) float64 {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(width))
	out, err := op.Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
	if err != nil {
		t.Fatal(err)
	}
	return out.(*graph.AggregateArtifact).Value
}

// randomKDECases calls check on random frames — 1 to 3 000 rows, a grid of 2
// to 40, a bandwidth of 0.1 to 1.1, now and then a constant column.
func randomKDECases(check func(cx, cy *data.Column, op KDE2D)) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		rows := 1 + rng.Intn(3000)
		x, y := make([]float64, rows), make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
			y[i] = rng.ExpFloat64() * 1e4
		}
		if trial%4 == 3 {
			for i := range y {
				y[i] = 2.5
			}
		}
		cx, cy := data.NewFloatColumn("x", x), data.NewFloatColumn("y", y)
		check(cx, cy, KDE2D{ColX: "x", ColY: "y", GridSize: 2 + rng.Intn(39), Bandwidth: 0.1 + rng.Float64()})
	}
}

// TestKDE2DIsTheSerialLoopBitForBit: on random frames, Run returns the
// factored serial loop's aggregate bit for bit at pool widths 1, 2 and 8.
func TestKDE2DIsTheSerialLoopBitForBit(t *testing.T) {
	randomKDECases(func(cx, cy *data.Column, op KDE2D) {
		want := refKDE2D(cx, cy, op.GridSize, op.Bandwidth)
		for _, width := range []int{1, 2, 8} {
			got := kdeAt(t, width, op, data.MustNewFrame(cx, cy))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d rows, grid %d, bandwidth %g, width %d: %v, the serial loop %v",
					cx.Len(), op.GridSize, op.Bandwidth, width, got, want)
			}
		}
	})
}

// TestKDE2DMatchesTheDirectKernel: on the same frames, the factored kernel's
// aggregate is the unfactored one's to 1e-12 relative.
func TestKDE2DMatchesTheDirectKernel(t *testing.T) {
	randomKDECases(func(cx, cy *data.Column, op KDE2D) {
		got := kdeAt(t, 2, op, data.MustNewFrame(cx, cy))
		want := directKDE2D(cx, cy, op.GridSize, op.Bandwidth)
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%d rows, grid %d, bandwidth %g: %v, the direct kernel %v (relative %.3g)",
				cx.Len(), op.GridSize, op.Bandwidth, got, want, math.Abs(got-want)/math.Abs(want))
		}
	})
}

// TestKDE2DRefusesAGridItCannotLayOut: a grid needs two lines per axis. Size 1
// divided by zero (the aggregate was NaN) and a negative size returned 0;
// both are errors, and 0 still means 32.
func TestKDE2DRefusesAGridItCannotLayOut(t *testing.T) {
	in := []graph.Artifact{&graph.DatasetArtifact{Frame: kdeFrame(1, 200)}}
	for _, grid := range []int{1, -3} {
		if out, err := (KDE2D{ColX: "x", ColY: "y", GridSize: grid}).Run(in); err == nil {
			t.Errorf("grid size %d: answered %v, want an error", grid, out)
		}
	}
	f := kdeFrame(1, 200)
	if got, want := kdeAt(t, 1, KDE2D{ColX: "x", ColY: "y"}, f), kdeAt(t, 1, KDE2D{ColX: "x", ColY: "y", GridSize: 32}, f); got != want {
		t.Errorf("grid size 0 gives %v, grid size 32 %v", got, want)
	}
}

// TestKDE2DSkipsARowWithAMissingCoordinate: one NaN in either column used to
// make the whole aggregate NaN; the row is left out instead, so the estimate
// is the one of the other rows.
func TestKDE2DSkipsARowWithAMissingCoordinate(t *testing.T) {
	f := kdeFrame(3, 300)
	op := KDE2D{ColX: "x", ColY: "y", GridSize: 16, Bandwidth: 0.5}
	for _, col := range []string{"x", "y"} {
		const row = 17
		vals := append([]float64(nil), f.Column(col).Floats...)
		vals[row] = math.NaN()
		holed, err := f.WithColumn(data.NewFloatColumn(col, vals))
		if err != nil {
			t.Fatal(err)
		}
		keep := make([]int, 0, f.NumRows()-1)
		for i := 0; i < f.NumRows(); i++ {
			if i != row {
				keep = append(keep, i)
			}
		}
		got, want := kdeAt(t, 2, op, holed), kdeAt(t, 2, op, f.Gather(keep, "rest"))
		if math.IsNaN(got) || got != want {
			t.Errorf("NaN in %s at row %d: aggregate %v, the other rows' %v", col, row, got, want)
		}
	}
}

// TestKDE2DSkipsARowWithAnInfiniteCoordinate: one +Inf or −Inf in either
// column made the axis's minimum or span infinite, so every grid line and
// the aggregate were NaN; the row is left out, as a missing one is.
func TestKDE2DSkipsARowWithAnInfiniteCoordinate(t *testing.T) {
	f := kdeFrame(3, 300)
	op := KDE2D{ColX: "x", ColY: "y", GridSize: 16, Bandwidth: 0.5}
	const row = 17
	keep := make([]int, 0, f.NumRows()-1)
	for i := 0; i < f.NumRows(); i++ {
		if i != row {
			keep = append(keep, i)
		}
	}
	want := kdeAt(t, 2, op, f.Gather(keep, "rest"))
	for _, col := range []string{"x", "y"} {
		for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
			vals := append([]float64(nil), f.Column(col).Floats...)
			vals[row] = inf
			holed, err := f.WithColumn(data.NewFloatColumn(col, vals))
			if err != nil {
				t.Fatal(err)
			}
			if got := kdeAt(t, 2, op, holed); math.IsNaN(got) || got != want {
				t.Errorf("%v in %s at row %d: aggregate %v, the other rows' %v", inf, col, row, got, want)
			}
		}
	}
}

// TestKDE2DSpawnsHelpersAtWidth: on W1's shape (4 000 rows, grid 32) the KDE is
// one pool call of 32 grid lines, run on the caller plus width - 1 helpers —
// the same call and the same chunks at width 1 and at width 4.
func TestKDE2DSpawnsHelpersAtWidth(t *testing.T) {
	f := kdeFrame(1, 4000)
	op := KDE2D{ColX: "x", ColY: "y", GridSize: 32, Bandwidth: 0.5}
	for _, width := range []int{1, 4} {
		before := parallel.ReadCounts()
		kdeAt(t, width, op, f)
		after := parallel.ReadCounts()
		if calls, chunks := after.Calls-before.Calls, after.Chunks-before.Chunks; calls != 1 || chunks != 32 {
			t.Errorf("width %d: %d pool calls of %d chunks, want 1 of 32", width, calls, chunks)
		}
		if helpers, denied := after.Helpers-before.Helpers, after.Denied-before.Denied; helpers != int64(width-1) || denied != 0 {
			t.Errorf("width %d: %d helpers spawned, %d slots denied, want %d and 0", width, helpers, denied, width-1)
		}
	}
}
