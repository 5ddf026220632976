package ops

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
)

// TestDerivedColumnIDsIgnoreTheLabel: a derived column's lineage ID is
// minted from what fixes its values — Derive's combiner and its inputs'
// IDs in order, RollingMean's window and its input's ID — and never from
// the output's name. The same derivation under two names is one column
// (equal IDs, equal values); a different combiner, input order, input or
// window is another. Each op's Hash keeps Out, so the two vertices stay
// two.
func TestDerivedColumnIDsIgnoreTheLabel(t *testing.T) {
	column := func(op graph.Operation, out string) *data.Column {
		t.Helper()
		c := frameOut(t, runOp(t, op, dataset())).Column(out)
		if c == nil {
			t.Fatalf("%s: no column %q", op.Name(), out)
		}
		return c
	}
	xy := []string{"x", "y"}
	twins := []struct {
		a, b       graph.Operation
		outA, outB string
	}{
		{Derive{Out: "d", Inputs: xy, Fn: Ratio}, Derive{Out: "e", Inputs: xy, Fn: Ratio}, "d", "e"},
		{Derive{Out: "d", Inputs: []string{"x", "x"}, Fn: Product}, Derive{Out: "x_sq", Inputs: []string{"x", "x"}, Fn: Product}, "d", "x_sq"},
		{RollingMean{Col: "x", Out: "r", Window: 3}, RollingMean{Col: "x", Out: "x_rm3", Window: 3}, "r", "x_rm3"},
	}
	for _, tc := range twins {
		a, b := column(tc.a, tc.outA), column(tc.b, tc.outB)
		if a.ID != b.ID {
			t.Errorf("%s and %s: IDs %s and %s, want one", tc.a.Name(), tc.b.Name(), a.ID, b.ID)
		}
		for i := range a.Floats {
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				t.Fatalf("%s and %s share an ID but differ at row %d", tc.a.Name(), tc.b.Name(), i)
			}
		}
		if tc.a.Hash() == tc.b.Hash() {
			t.Errorf("%s and %s: one op hash, want the output name in it", tc.a.Name(), tc.b.Name())
		}
	}
	others := []struct {
		a, b graph.Operation
	}{
		{Derive{Out: "d", Inputs: xy, Fn: Ratio}, Derive{Out: "d", Inputs: xy, Fn: Diff}},
		{Derive{Out: "d", Inputs: xy, Fn: Ratio}, Derive{Out: "d", Inputs: []string{"y", "x"}, Fn: Ratio}},
		{Derive{Out: "d", Inputs: xy, Fn: Sum}, Derive{Out: "d", Inputs: []string{"x", "id"}, Fn: Sum}},
		{Derive{Out: "d", Inputs: xy, Fn: Sum}, Derive{Out: "d", Inputs: []string{"x", "y", "y"}, Fn: Sum}},
		{RollingMean{Col: "x", Out: "r", Window: 3}, RollingMean{Col: "x", Out: "r", Window: 2}},
		{RollingMean{Col: "x", Out: "r", Window: 3}, RollingMean{Col: "y", Out: "r", Window: 3}},
	}
	for _, tc := range others {
		out := "d"
		if _, ok := tc.a.(RollingMean); ok {
			out = "r"
		}
		if column(tc.a, out).ID == column(tc.b, out).ID {
			t.Errorf("%s and %s: one ID for two derivations", tc.a.Name(), tc.b.Name())
		}
	}
	// The column IDs of a derivation and of a rolling mean never meet, nor
	// does either meet the ID the op hash alone would give.
	d := Derive{Out: "r", Inputs: []string{"x"}, Fn: Mean}
	r := RollingMean{Col: "x", Out: "r", Window: 1}
	if dc, rc := column(d, "r"), column(r, "r"); dc.ID == rc.ID || dc.ID == data.DeriveID(d.Hash(), testFrame().Column("x").ID) {
		t.Errorf("a mean of x and a rolling mean of x over one row share the ID %s", dc.ID)
	}
}

// TestDeriveAndRollingMeanHashesAreUnchanged pins the two ops' hashes, and
// with them every vertex ID, Experiment Graph and plan of a workload that
// derives: minting their columns' IDs without the output name left the op
// hashes as they were.
func TestDeriveAndRollingMeanHashesAreUnchanged(t *testing.T) {
	for _, tc := range []struct {
		op   graph.Operation
		want string
	}{
		{Derive{Out: "FE_000", Inputs: []string{"AMT_INCOME_TOTAL", "AMT_CREDIT"}, Fn: Ratio}, "3bf206a1898f5553b13bb3df78696415"},
		{RollingMean{Col: "x", Out: "x_rm3", Window: 3}, "2cf0e2079657b6092d670c44e593d06c"},
	} {
		if got := tc.op.Hash(); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.op.Name(), got, tc.want)
		}
	}
}
