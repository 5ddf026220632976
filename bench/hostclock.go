package main

import (
	"bytes"
	"encoding/gob"
	"sort"
	"time"
)

// The host this benchmark runs on is a small virtual machine on a shared
// computer, and its speed changes: between 100 ms windows by a tenth, and
// for minutes at a time by a third to a half when a neighbour is busy. A
// time measured there says as much about the neighbour as about the program.
//
// So every timed interval is interleaved with bursts of a fixed piece of
// work that no later change can touch (standard library only, defined
// here), and the interval's time is divided by how slowly that reference
// work ran in the same interval. The result is in seconds of a host on
// which the reference unit takes unitNominal.

// unitNominal is what one reference unit took on the reference host in the
// middle of the range seen while this was written (0.55 to 1.1 ms). Only
// its being constant matters.
const unitNominal = 800 * time.Microsecond

// refFrame is what the reference unit pushes through gob, the codec the
// system itself spends most of its wire time in.
type refFrame struct {
	Names []string
	Cols  [][]float64
}

// reference is the fixed work: it mixes what the measured system does
// (reflection-driven encode and decode with their allocations, sorting,
// bulk copies, dependent integer arithmetic over a cache-sized table).
type reference struct {
	frame   refFrame
	floats  []float64
	scratch []float64
	table   []uint64
	block   []byte
	sink    uint64
}

func newReference() *reference {
	r := &reference{
		floats:  make([]float64, 4096),
		scratch: make([]float64, 4096),
		table:   make([]uint64, 1<<15),
		block:   make([]byte, 1<<18),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range r.floats {
		r.floats[i] = float64(next()%1_000_000) / 1000
	}
	for c := 0; c < 8; c++ {
		col := make([]float64, 512)
		for i := range col {
			col[i] = float64(next()%1000) / 7
		}
		r.frame.Names = append(r.frame.Names, string(rune('a'+c)))
		r.frame.Cols = append(r.frame.Cols, col)
	}
	return r
}

// unit does one reference unit.
func (r *reference) unit() {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&r.frame); err != nil {
		panic(err)
	}
	var back refFrame
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		panic(err)
	}
	r.sink += uint64(len(back.Cols))

	copy(r.scratch, r.floats)
	sort.Float64s(r.scratch)

	half := len(r.block) / 2
	copy(r.block[:half], r.block[half:])
	copy(r.block[half:], r.block[:half])

	x := r.sink | 1
	mask := uint64(len(r.table) - 1)
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.table[x&mask] += x
	}
	r.sink = x
}

// hostClock accumulates the reference bursts of one timed interval.
type hostClock struct {
	ref   *reference
	units int
	took  time.Duration
}

// burst runs n reference units and returns how long they took, which the
// caller leaves out of what it is timing.
func (h *hostClock) burst(n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		h.ref.unit()
	}
	d := time.Since(start)
	h.units += n
	h.took += d
	return d
}

// factor is how many times slower than nominal the host ran the reference
// work over the interval.
func (h *hostClock) factor() float64 {
	return ratio(h.took.Seconds(), float64(h.units)*unitNominal.Seconds())
}
