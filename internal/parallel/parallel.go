// Package parallel provides the process-wide bounded worker pool of the
// hot data/ML kernels (internal/data, internal/ml, internal/ops) and the
// column codec of internal/remote. The DAG executor (internal/core) takes
// its width from Workers but starts its own workers, outside the
// pool's budget; a kernel running inside one of them draws helpers from the
// pool like any other caller.
//
// The pool is a counting semaphore over *helper* goroutines: its entry
// point, For, always runs work on the calling goroutine and only spawns
// extra goroutines while the global budget allows it. Two properties follow:
//
//   - Nesting cannot deadlock. A kernel running inside another kernel's
//     task may call For again; if the budget is exhausted the inner call
//     simply runs inline on its caller.
//   - Total helper goroutines across the process stay bounded by
//     SetWorkers (default runtime.GOMAXPROCS(0)), no matter how many
//     kernels parallelize at once. The executor's workers are not helpers
//     and are not counted.
//
// Determinism: callers must write results to disjoint, index-addressed
// locations (out[i] = ...). Under that discipline results are bit-identical
// to a sequential run regardless of scheduling, which is what keeps the
// paper's cost model and artifact hashes stable under parallelism.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// width is the configured pool width (callers + helpers); 0 means
	// "use runtime.GOMAXPROCS(0)".
	width atomic.Int64
	// live counts helper goroutines currently running.
	live atomic.Int64
	// The cumulative counts ReadCounts reports.
	calls, chunksRun, helpers, denied atomic.Int64
)

// Counts are the pool's cumulative totals since the process started. Their
// deltas around a kernel call are how tests check that the kernel still
// runs wide.
type Counts struct {
	// Calls counts For invocations; Chunks the work chunks they split into.
	Calls, Chunks int64
	// Helpers counts helper goroutines spawned; Denied counts helper slots
	// the global budget refused (that work ran inline on its caller).
	Helpers, Denied int64
}

// ReadCounts returns the pool's cumulative counts.
func ReadCounts() Counts {
	return Counts{Calls: calls.Load(), Chunks: chunksRun.Load(), Helpers: helpers.Load(), Denied: denied.Load()}
}

// Workers returns the configured pool width: the maximum number of
// goroutines (the caller plus helpers) a single For call will use.
func Workers() int {
	if w := int(width.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the pool width and returns the previous setting. n < 1
// resets to the runtime.GOMAXPROCS(0) default. It may be called at any
// time; in-flight calls keep the width they started with.
func SetWorkers(n int) int {
	prev := int(width.Load())
	if n < 1 {
		n = 0
	}
	width.Store(int64(n))
	if prev == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return prev
}

// acquire reserves one helper slot if the global budget (width-1 helpers
// beyond callers, summed over all concurrent entry points) allows it.
func acquire(limit int64) bool {
	for {
		n := live.Load()
		if n >= limit {
			return false
		}
		if live.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func release() { live.Add(-1) }

// For runs fn over the index range [0, n) split into chunks of size grain,
// using the calling goroutine plus up to Workers()-1 pool helpers. fn
// receives half-open [lo, hi) chunk bounds and must only write to
// index-addressed locations disjoint across chunks; under that rule the
// result is identical to calling fn(0, n) sequentially. For returns when
// every chunk has completed.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	calls.Add(1)
	chunksRun.Add(int64(chunks))
	w := min(Workers(), chunks)
	if w <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			fn(lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	// The helper budget is global: width-1 helpers in total, so deeply
	// nested For calls degrade to inline execution instead of piling up
	// goroutines.
	spawned := 0
	for ; spawned < w-1; spawned++ {
		if !acquire(int64(Workers() - 1)) {
			denied.Add(int64(w - 1 - spawned))
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	helpers.Add(int64(spawned))
	work()
	wg.Wait()
}
