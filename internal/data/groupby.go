package data

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

// Partitioned group-by engine.
//
// The sequential group-by rendered every key to a string and pushed every
// row through one serial map[string][]int. This engine aggregates in three
// deterministic phases:
//
//  1. partial aggregation: rows are scanned in fixed-size chunks
//     (concurrently); each chunk keeps per-partition hash tables of
//     partial aggregate state (count, non-missing count, sum, min, max
//     per aggregated column) — no row lists are materialized;
//  2. merge: partitions are merged concurrently; within a partition,
//     chunk tables merge in chunk order, so floating-point sums combine
//     in one fixed tree shape regardless of worker count;
//  3. emit: groups sort by their rendered key (rendering touches one row
//     per distinct group, not one per input row) and the output columns
//     fill chunk-parallel.
//
// Chunk boundaries and the partition count are fixed independently of the
// pool width, so the result is bit-identical at any worker count.

// gbColStats is the partial aggregate state of one (group, column) pair.
// Sum/count/mean/min/max all derive from it: mean is sum/n, so every
// supported AggKind composes from one merged state.
type gbColStats struct {
	n, sum, mn, mx float64
}

func (s *gbColStats) observe(v float64) {
	s.n++
	s.sum += v
	if v < s.mn {
		s.mn = v
	}
	if v > s.mx {
		s.mx = v
	}
}

func (s *gbColStats) merge(o gbColStats) {
	s.n += o.n
	s.sum += o.sum
	if o.mn < s.mn {
		s.mn = o.mn
	}
	if o.mx > s.mx {
		s.mx = o.mx
	}
}

func (s gbColStats) value(kind AggKind, rows int64) float64 {
	switch kind {
	case AggCount:
		return float64(rows)
	case AggSum:
		return s.sum
	case AggMean:
		if s.n == 0 {
			return math.NaN()
		}
		return s.sum / s.n
	case AggMin:
		if s.n == 0 {
			return math.NaN()
		}
		return s.mn
	case AggMax:
		if s.n == 0 {
			return math.NaN()
		}
		return s.mx
	default:
		return math.NaN()
	}
}

// gbGroup is one group's accumulated state: the first row it appeared on
// (for rendering the key output), its total row count (AggCount includes
// missing cells), and per-aggregated-column stats.
type gbGroup struct {
	firstRow int32
	rows     int64
	stats    []gbColStats
}

func newGBGroup(firstRow int32, ncols int) *gbGroup {
	g := &gbGroup{firstRow: firstRow, stats: make([]gbColStats, ncols)}
	for j := range g.stats {
		g.stats[j] = gbColStats{mn: math.Inf(1), mx: math.Inf(-1)}
	}
	return g
}

// groupTokens reduces the key column to tokens plus their hash function,
// mirroring the join's representation choice.
func groupByTokens(kc *Column, aggCols []*Column) []*gbGroup {
	if kc.IsDict() {
		return aggregateTokens(dictTokens(kc), hashUint64, aggCols)
	}
	if kc.Type.IsNumeric() {
		return aggregateTokens(numericTokens(kc), hashUint64, aggCols)
	}
	return aggregateTokens(stringTokens(kc), hashString, aggCols)
}

// aggregateTokens runs the partial-aggregation and merge phases, returning
// every group's merged state (in unspecified order; callers sort by
// rendered key).
func aggregateTokens[K comparable](toks []K, hash func(K) uint64, aggCols []*Column) []*gbGroup {
	n := len(toks)
	parts := partitionIDs(toks, hash)
	nchunks := (n + rowGrain - 1) / rowGrain

	// Phase 1: chunk-local, partition-split partial aggregation. Chunk
	// boundaries derive from rowGrain only, never from the worker count:
	// parallel.For may hand a narrow pool one wide range, so the callback
	// re-splits its range at rowGrain boundaries and keeps one partial
	// state per fixed chunk — the floating-point accumulation tree is the
	// same shape at every width.
	locals := make([][]map[K]*gbGroup, nchunks)
	parallel.For(n, rowGrain, func(lo, hi int) {
		for base := lo; base < hi; base += rowGrain {
			end := min(base+rowGrain, hi)
			local := make([]map[K]*gbGroup, kernelParts)
			for i := base; i < end; i++ {
				p := parts[i]
				m := local[p]
				if m == nil {
					m = make(map[K]*gbGroup)
					local[p] = m
				}
				g := m[toks[i]]
				if g == nil {
					g = newGBGroup(int32(i), len(aggCols))
					m[toks[i]] = g
				}
				g.rows++
				for j, c := range aggCols {
					if !c.IsMissing(i) {
						g.stats[j].observe(c.Float(i))
					}
				}
			}
			locals[base/rowGrain] = local
		}
	})

	// Phase 2: merge partitions concurrently; chunks merge in chunk order
	// within each partition, fixing the floating-point combination tree.
	merged := make([]map[K]*gbGroup, kernelParts)
	parallel.For(kernelParts, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			var global map[K]*gbGroup
			for c := 0; c < nchunks; c++ {
				m := locals[c][p]
				if m == nil {
					continue
				}
				if global == nil {
					global = m // first chunk's table is adopted wholesale
					continue
				}
				for tok, g := range m {
					gg := global[tok]
					if gg == nil {
						global[tok] = g // first appearance was this chunk
						continue
					}
					gg.rows += g.rows
					for j := range gg.stats {
						gg.stats[j].merge(g.stats[j])
					}
				}
			}
			merged[p] = global
		}
	})

	var out []*gbGroup
	for _, m := range merged {
		for _, g := range m {
			out = append(out, g)
		}
	}
	return out
}

// sortGroupsByRenderedKey orders groups by the string rendering of their
// key (one StringAt per group), matching the sequential kernel's sorted
// output. Tokens are injective under rendering, so keys are unique and the
// order is total.
func sortGroupsByRenderedKey(kc *Column, groups []*gbGroup) {
	keys := make([]string, len(groups))
	parallel.For(len(groups), 256, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			keys[gi] = kc.StringAt(int(groups[gi].firstRow))
		}
	})
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sorted := make([]*gbGroup, len(groups))
	for i, oi := range order {
		sorted[i] = groups[oi]
	}
	copy(groups, sorted)
}
