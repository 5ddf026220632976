package data

import (
	"repro/internal/parallel"
)

// Hash join on key slots (key.go).
//
// The right side's key is slotted and its rows listed per slot by the
// group-by's counting sort, so each slot's rows ascend. Each left row maps
// its key into the right's slot space (keySpace.probe), a prefix sum over
// the left rows places each row's matches in the output, and the pairs are
// written in fixed 2048-row chunks (rowGrain). Matches therefore appear in
// left-row order, with each left row's matches in ascending right-row
// order — the sequential map-based kernel's order — and, since no boundary
// depends on the pool width, the joined frame is bit-identical at any width.

// joinRowIndices computes the matched (left, right) row pairs for Join;
// unmatched left rows emit (i, -1) under Left join semantics.
func joinRowIndices(lk, rk *Column, kind JoinKind) (lidx, ridx []int) {
	ks := keySlots(rk)
	g := listRows(ks.slots, ks.domain)
	slots := ks.probe(lk, g)
	matches := func(i int) []int32 {
		if s := slots[i]; s >= 0 {
			return g.rows[g.start[s]:g.start[s+1]]
		}
		return nil
	}
	// off[i] is where left row i's pairs start in the output.
	off := make([]int, len(slots)+1)
	for i := range slots {
		n := len(matches(i))
		if n == 0 && kind == Left {
			n = 1
		}
		off[i+1] = off[i] + n
	}
	lidx, ridx = make([]int, off[len(slots)]), make([]int, off[len(slots)])
	parallel.For(len(slots), rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := off[i]
			rows := matches(i)
			if len(rows) == 0 && off[i+1] > o {
				lidx[o], ridx[o] = i, -1
			}
			for k, r := range rows {
				lidx[o+k], ridx[o+k] = i, int(r)
			}
		}
	})
	return lidx, ridx
}
