package obs

import (
	"math"
	"sync"
	"testing"
)

func TestSketchExactUnderCapacity(t *testing.T) {
	s := NewSketch(16)
	for i := 1; i <= 10; i++ {
		s.Observe(float64(i))
	}
	if got := s.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
}

func TestSketchDeterministicOverCapacity(t *testing.T) {
	run := func() (float64, float64) {
		s := NewSketch(32)
		for i := 0; i < 10_000; i++ {
			s.Observe(float64(i % 100))
		}
		return s.Quantile(0.5), s.Quantile(0.95)
	}
	p50a, p95a := run()
	p50b, p95b := run()
	if p50a != p50b || p95a != p95b {
		t.Fatalf("sketch not deterministic: (%v,%v) vs (%v,%v)", p50a, p95a, p50b, p95b)
	}
	// Sampled from uniform values 0..99, the quantiles should land in a
	// generous band around the true values (50, 95).
	if p50a < 20 || p50a > 80 {
		t.Errorf("p50 = %v, wildly off for uniform 0..99", p50a)
	}
	if p95a < 70 {
		t.Errorf("p95 = %v, wildly off for uniform 0..99", p95a)
	}
}

func TestSketchIgnoresNonFinite(t *testing.T) {
	s := NewSketch(8)
	s.Observe(math.NaN())
	s.Observe(math.Inf(1))
	s.Observe(math.Inf(-1))
	s.Observe(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1 (non-finite dropped)", got)
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("Quantile(0.5) = %v, want 3", got)
	}
}

func TestSketchNilSafe(t *testing.T) {
	var s *Sketch
	s.Observe(1)
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil sketch should be inert")
	}
}

func TestSketchConcurrent(t *testing.T) {
	s := NewSketch(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := s.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

// TestSketchConcurrentReaders interleaves Observe with Quantile/Count
// reads — a calibration report reads quantiles while updates are still
// observing, and the -race run is the assertion here.
func TestSketchConcurrentReaders(t *testing.T) {
	s := NewSketch(128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Observe(float64(i%97) / 10)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
					if v := s.Quantile(q); v < 0 || v > 10 {
						t.Errorf("Quantile(%v) = %v outside observed range", q, v)
						return
					}
				}
				_ = s.Count()
			}
		}()
	}
	wg.Wait()
	if got := s.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}
