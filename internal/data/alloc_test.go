package data

import (
	"testing"

	"repro/internal/parallel"
)

// TestStringAtAllocationFree pins the zero-allocation guarantee of StringAt
// on representations that return shared storage: plain strings, dictionary
// entries, and the bool constants. (Numeric cells format through strconv
// and legitimately allocate.)
func TestStringAtAllocationFree(t *testing.T) {
	cols := map[string]*Column{
		"plain": NewStringColumn("s", []string{"a", "bb", "ccc"}),
		"dict":  NewStringColumn("d", []string{"x", "y", "x"}).DictEncoded(),
		"bool":  NewBoolColumn("b", []bool{true, false, true}),
	}
	var sink string
	for name, c := range cols {
		c := c
		if a := testing.AllocsPerRun(100, func() {
			for i := 0; i < c.Len(); i++ {
				sink = c.StringAt(i)
			}
		}); a != 0 {
			t.Errorf("StringAt on %s column allocates %.1f per run, want 0", name, a)
		}
	}
	_ = sink
}

// TestJoinAllocationBound pins the join's allocation count, which does not
// grow with the row or key count: the key slots, the right side's row
// lists, the probed slots, the output offsets and pairs, and the gathered
// output columns with their IDs — 54 on this join.
func TestJoinAllocationBound(t *testing.T) {
	left, right := benchFrame(9000, 21), benchFrame(9000, 22)
	prev := parallel.SetWorkers(1) // keep pool-helper allocations out of the count
	defer parallel.SetWorkers(prev)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := left.Join(right, "id", Left, "op"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Errorf("a 9000-row Left join allocates %.1f per run, want <= 60", allocs)
	}
}
