package obs

import "sync"

// Ring is the one bounded buffer of the observability plane: the request
// flight log and calibration's samples keep their history in one, and a
// client trace its events. It retains the newest n elements of capacity n —
// a full ring overwrites its oldest element, so a long-running server always
// holds the recent past — and numbers elements from 1 in Add order.
// Capacity 0 is unbounded (client-side one-run traces).
//
// All methods are safe for concurrent use and nil-safe: a nil *Ring keeps
// nothing and reports empty, which is how a disabled surface is held
// without guards.
type Ring[T any] struct {
	mu   sync.Mutex
	cap  int
	buf  []T
	head int   // index of the oldest element once the ring is full
	seq  int64 // elements ever added
}

// NewRing returns a ring retaining the newest n elements (n <= 0: all).
func NewRing[T any](n int) *Ring[T] {
	if n < 0 {
		n = 0
	}
	return &Ring[T]{cap: n}
}

// Add appends v as the newest element.
func (r *Ring[T]) Add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	r.push(v)
	r.mu.Unlock()
}

// AddSeq appends the element mk builds from its sequence number, for
// records that carry their own position; mk runs before the element is
// visible to readers.
func (r *Ring[T]) AddSeq(mk func(seq int64) T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	r.push(mk(r.seq))
	r.mu.Unlock()
}

// push stores v, overwriting the oldest element of a full ring. Caller
// holds r.mu.
func (r *Ring[T]) push(v T) {
	if r.cap == 0 || len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.cap
}

// Snapshot returns a copy of the retained elements, oldest first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
