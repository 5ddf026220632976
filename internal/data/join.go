package data

import (
	"repro/internal/parallel"
)

// Radix-partitioned hash join engine.
//
// The sequential join built one map[string][]int over the whole right side
// and probed it row by row — a single serial hash table the worker pool
// never touched. This engine splits the work into kernelParts partitions by
// key hash:
//
//  1. partition: right rows are histogrammed and scattered into a
//     partition-major array, chunk-parallel;
//  2. build: each partition gets its own hash index, built concurrently —
//     per-key match lists are intrusive chains through one shared next[]
//     array, so building allocates O(partitions) maps instead of one slice
//     per distinct key;
//  3. probe: left rows are scanned in fixed-size chunks (concurrently),
//     each row probing only its own partition's index; per-chunk match
//     buffers concatenate in chunk order.
//
// Every boundary (chunk grain, partition count, scatter order) is fixed
// independently of the pool width, so the emitted (left, right) row pairs —
// and therefore the joined frame — are bit-identical at any worker count:
// matches appear in left-row order, with each left row's matches in
// ascending right-row order, exactly as the sequential map produced them.

// chain is one key's match list inside a partition index: positions into
// the partitioned row order, linked through joinIndex.next.
type chain struct {
	head, tail int32
}

// joinIndex is the per-partition hash index over the right side.
type joinIndex[K comparable] struct {
	// rowOf maps a position in partitioned order back to the original
	// right-row index; shared by all partitions.
	rowOf []int32
	// next links positions with equal keys in ascending row order; -1
	// terminates. Shared by all partitions.
	next []int32
	// byKey maps a key to its chain, per partition.
	byKey []map[K]chain
	// start/end bound each partition's positions in rowOf.
	start []int32
}

// buildJoinIndex partitions the right-side tokens and builds one hash
// index per partition.
func buildJoinIndex[K comparable](toks []K, parts []uint8) *joinIndex[K] {
	n := len(toks)
	nchunks := (n + rowGrain - 1) / rowGrain

	// Histogram: per-chunk, per-partition row counts.
	counts := make([][kernelParts]int32, nchunks)
	parallel.ForSite(parallel.SiteData, n, rowGrain, func(lo, hi int) {
		c := &counts[lo/rowGrain]
		for i := lo; i < hi; i++ {
			c[parts[i]]++
		}
	})

	// Prefix sums: offsets[c][p] is where chunk c's partition-p rows land
	// in the partition-major order. Partition-major + chunk-major-within-
	// partition ordering means positions within a partition are in
	// ascending original-row order.
	idx := &joinIndex[K]{
		rowOf: make([]int32, n),
		next:  make([]int32, n),
		byKey: make([]map[K]chain, kernelParts),
		start: make([]int32, kernelParts+1),
	}
	offsets := make([][kernelParts]int32, nchunks)
	var pos int32
	for p := 0; p < kernelParts; p++ {
		idx.start[p] = pos
		for c := 0; c < nchunks; c++ {
			offsets[c][p] = pos
			pos += counts[c][p]
		}
	}
	idx.start[kernelParts] = pos

	// Scatter rows into partition-major order, chunk-parallel (each chunk
	// writes disjoint ranges given its precomputed offsets).
	parallel.ForSite(parallel.SiteData, n, rowGrain, func(lo, hi int) {
		off := offsets[lo/rowGrain]
		for i := lo; i < hi; i++ {
			p := parts[i]
			idx.rowOf[off[p]] = int32(i)
			off[p]++
		}
	})

	// Build each partition's index concurrently. Chains link positions in
	// ascending order, so walking a chain yields right rows in the same
	// order the sequential map's append produced.
	parallel.ForSite(parallel.SiteData, kernelParts, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			span := idx.rowOf[idx.start[p]:idx.start[p+1]]
			m := make(map[K]chain, len(span))
			base := idx.start[p]
			for rel := range span {
				posn := base + int32(rel)
				k := toks[span[rel]]
				if ch, ok := m[k]; ok {
					idx.next[ch.tail] = posn
					ch.tail = posn
					m[k] = ch
				} else {
					m[k] = chain{head: posn, tail: posn}
				}
				idx.next[posn] = -1
			}
			idx.byKey[p] = m
		}
	})
	return idx
}

// probeJoin probes the index with the left-side tokens and returns the
// matched (left, right) row index pairs in left-row order; unmatched left
// rows emit (i, -1) under Left join semantics.
func probeJoin[K comparable](idx *joinIndex[K], ltoks []K, lparts []uint8, kind JoinKind) (lidx, ridx []int) {
	nL := len(ltoks)
	nchunks := (nL + rowGrain - 1) / rowGrain
	type matches struct{ l, r []int }
	chunks := make([]matches, nchunks)
	parallel.ForSite(parallel.SiteData, nL, rowGrain, func(lo, hi int) {
		var m matches
		for i := lo; i < hi; i++ {
			ch, ok := idx.byKey[lparts[i]][ltoks[i]]
			if !ok {
				if kind == Left {
					m.l = append(m.l, i)
					m.r = append(m.r, -1)
				}
				continue
			}
			for b := ch.head; b >= 0; b = idx.next[b] {
				m.l = append(m.l, i)
				m.r = append(m.r, int(idx.rowOf[b]))
			}
		}
		chunks[lo/rowGrain] = m
	})
	total := 0
	for _, m := range chunks {
		total += len(m.l)
	}
	lidx = make([]int, 0, total)
	ridx = make([]int, 0, total)
	for _, m := range chunks {
		lidx = append(lidx, m.l...)
		ridx = append(ridx, m.r...)
	}
	return lidx, ridx
}

// joinRowIndices computes the matched row pairs for Join, choosing the
// cheapest token representation the key columns support: dictionary codes
// when both sides are dictionary-encoded, raw value bits when both sides
// share a primitive numeric type, rendered strings otherwise (the exact
// semantics of the sequential kernel in every case).
func joinRowIndices(lk, rk *Column, kind JoinKind) (lidx, ridx []int) {
	m := met()
	m.keyRows.Add(int64(lk.Len() + rk.Len()))
	m.partitionsUsed.Add(kernelParts)
	switch {
	case lk.IsDict() && rk.IsDict():
		m.dictKeyRows.Add(int64(lk.Len() + rk.Len()))
		ltoks := dictTokens(lk)
		rtoks := remappedDictTokens(lk, rk)
		return joinOnTokens(ltoks, rtoks, hashUint64, kind)
	case lk.Type == rk.Type && lk.Type.IsNumeric():
		return joinOnTokens(numericTokens(lk), numericTokens(rk), hashUint64, kind)
	default:
		return joinOnTokens(stringTokens(lk), stringTokens(rk), hashString, kind)
	}
}

func joinOnTokens[K comparable](ltoks, rtoks []K, hash func(K) uint64, kind JoinKind) (lidx, ridx []int) {
	idx := buildJoinIndex(rtoks, partitionIDs(rtoks, hash))
	return probeJoin(idx, ltoks, partitionIDs(ltoks, hash), kind)
}
