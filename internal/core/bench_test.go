package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// BenchmarkExecuteSequentialVsParallel measures wall-clock of the executor
// on wide synthetic DAGs (8 independent branches) in sequential and
// parallel mode. The latency profile stands in for I/O-bound operators and
// shows branch overlap even on one core; the spin profile is CPU-bound and
// scales with physical cores.
func BenchmarkExecuteSequentialVsParallel(b *testing.B) {
	profiles := []struct {
		name string
		p    synth.WideProfile
	}{
		{"latency", synth.WideProfile{Branches: 8, Depth: 3, Sleep: 2 * time.Millisecond}},
		{"cpu", synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 2_000_000}},
	}
	for _, prof := range profiles {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", prof.name, workers), func(b *testing.B) {
				srv := NewServer(store.New(cost.Memory()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w := synth.Wide(prof.p, 1)
					if _, err := Execute(w, nil, srv, WithParallelism(workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExecuteTraceOverhead compares Execute on the synth.Wide DAG
// with tracing absent (no option), disabled (nil recorder — the WithTrace
// fast path), and enabled. Absent and disabled must match within noise:
// the disabled path takes no timestamps and allocates nothing for tracing
// (allocations are reported; compare disabled against absent).
func BenchmarkExecuteTraceOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 50_000}
	run := func(b *testing.B, mkOpts func() []ExecOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := synth.Wide(prof, 1)
			if _, err := Execute(w, nil, srv, mkOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("absent", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4)} })
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4), WithTrace(nil)} })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithTrace(obs.NewTrace())}
		})
	})
}

// BenchmarkExecuteCalibOverhead compares Execute on a reuse-heavy plan
// with calibration measurement absent (no option), disabled
// (WithCalibration(false)), and enabled. The server is pre-seeded so each
// iteration exercises the EG fetch path that calibration instruments.
// Absent and disabled must match within noise: the disabled path takes no
// fetch timestamps and allocates nothing for calibration (allocations are
// reported; compare disabled against absent).
func BenchmarkExecuteCalibOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 50_000}
	run := func(b *testing.B, mkOpts func() []ExecOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()))
		if _, err := NewClient(srv).Run(synth.Wide(prof, 1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := synth.Wide(prof, 1)
			w.MarkComputed()
			opt := srv.Optimize(w, nil)
			if _, err := Execute(w, opt.Plan, srv, mkOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("absent", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4)} })
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithCalibration(false)}
		})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithCalibration(true)}
		})
	})
}

// BenchmarkOptimizeExplainOverhead compares Server.Optimize with explain
// capture absent (no option), disabled (nil recorder — the WithExplain fast
// path), and enabled. Absent and disabled must match within noise: the
// disabled path never builds a record and allocates nothing for explain
// (allocations are reported; compare disabled against absent).
func BenchmarkOptimizeExplainOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3}
	run := func(b *testing.B, opts ...ServerOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()), opts...)
		// Seed the EG so the planner has stored artifacts to reason about.
		if _, err := NewClient(srv).Run(synth.Wide(prof, 1)); err != nil {
			b.Fatal(err)
		}
		w := synth.Wide(prof, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Optimize(w, nil)
		}
	}
	b.Run("absent", func(b *testing.B) { run(b) })
	b.Run("disabled", func(b *testing.B) { run(b, WithExplain(nil)) })
	b.Run("enabled", func(b *testing.B) { run(b, WithExplain(explain.NewRecorder(8))) })
}
