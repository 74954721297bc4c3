package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trueQuantile is the empirical quantile of a finished sample.
func trueQuantile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// TestP2AccuracyBounds pins the documented error bound: ≤ 5% relative error
// against the empirical quantile at n = 10 000 for smooth distributions.
func TestP2AccuracyBounds(t *testing.T) {
	const n = 10_000
	dists := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
		{"shifted-normal", func(r *rand.Rand) float64 { return 10 + r.NormFloat64() }},
	}
	for _, d := range dists {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			r := rand.New(rand.NewSource(42))
			est := newP2(p)
			xs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := d.gen(r)
				xs = append(xs, x)
				est.add(x)
			}
			want := trueQuantile(xs, p)
			got := est.value()
			rel := math.Abs(got-want) / want
			if rel > 0.05 {
				t.Errorf("%s p%g: estimate %g vs true %g (rel err %.3f > 0.05)",
					d.name, p*100, got, want, rel)
			}
		}
	}
}

// TestP2SmallSamplesExact: below five observations the estimator reports the
// exact empirical quantile.
func TestP2SmallSamplesExact(t *testing.T) {
	est := newP2(0.5)
	if got := est.value(); got != 0 {
		t.Errorf("empty estimator should report 0, got %g", got)
	}
	for _, x := range []float64{5, 1, 3} {
		est.add(x)
	}
	if got := est.value(); got != 3 {
		t.Errorf("median of {5,1,3} should be exactly 3, got %g", got)
	}
}

// TestP2MarkersStayOrdered feeds adversarial (sorted, then reversed) input
// and checks the invariant q0 ≤ q1 ≤ q2 ≤ q3 ≤ q4 after every step.
func TestP2MarkersStayOrdered(t *testing.T) {
	feed := make([]float64, 0, 2000)
	for i := 0; i < 1000; i++ {
		feed = append(feed, float64(i))
	}
	for i := 1000; i > 0; i-- {
		feed = append(feed, float64(i))
	}
	est := newP2(0.9)
	for i, x := range feed {
		est.add(x)
		if est.n < 5 {
			continue
		}
		for j := 0; j < 4; j++ {
			if est.q[j] > est.q[j+1] {
				t.Fatalf("step %d: markers out of order: %v", i, est.q)
			}
		}
	}
}

func TestLatencySketch(t *testing.T) {
	s := NewLatencySketch()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		s.Observe(r.Float64() * 0.01) // 0..10ms
	}
	if s.Count() != 5000 {
		t.Errorf("count = %d", s.Count())
	}
	if m := s.Mean(); m < 0.004 || m > 0.006 {
		t.Errorf("mean of U(0,0.01) should be ≈0.005, got %g", m)
	}
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	if p50 < 0.004 || p50 > 0.006 {
		t.Errorf("p50 ≈ 0.005 expected, got %g", p50)
	}
	if p99 < 0.0095 || p99 > 0.0101 {
		t.Errorf("p99 ≈ 0.0099 expected, got %g", p99)
	}
	if mx := s.Max(); mx < p99 || mx > 0.01 {
		t.Errorf("max %g out of range [p99 %g, 0.01]", mx, p99)
	}
}
