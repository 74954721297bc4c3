package workload

import (
	"math"
	"sort"
)

// Streaming quantile estimation for per-fingerprint latency profiles. The
// profiler observes every served request, so the estimator must be O(1) in
// both time and space per observation — no sample buffers that grow with
// traffic. The P² (piecewise-parabolic) algorithm of Jain & Chlamtac
// [CACM 1985] keeps exactly five markers per tracked quantile and adjusts
// their heights with a parabolic interpolation as observations stream in.
//
// Accuracy: P² is exact for the first five observations and converges on the
// true quantile for stationary inputs; for smooth unimodal distributions the
// relative error is empirically within a few percent once a few hundred
// observations have arrived. TestP2AccuracyBounds pins ≤ 5% relative error at
// n = 10 000 for uniform and exponential inputs at p50/p90/p99 — the
// documented bound the serving layer relies on.

// p2 estimates a single quantile p with five markers.
type p2 struct {
	p     float64
	n     int        // observations seen
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired marker positions
	dWant [5]float64 // desired-position increments per observation
}

func newP2(p float64) *p2 {
	e := &p2{p: p}
	e.dWant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// add feeds one observation.
func (e *p2) add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.pos[i] = float64(i + 1)
				e.want[i] = 1 + 4*e.dWant[i]
			}
		}
		return
	}
	// Locate the cell containing x, clamping the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dWant[i]
	}
	e.n++
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² (piecewise-parabolic) height prediction for moving
// marker i by s ∈ {−1, +1}.
func (e *p2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback when the parabola would break marker monotonicity.
func (e *p2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// value is the current estimate. For fewer than five observations it is the
// exact empirical quantile of the stored samples.
func (e *p2) value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		tmp := make([]float64, e.n)
		copy(tmp, e.q[:e.n])
		sort.Float64s(tmp)
		idx := int(math.Ceil(e.p*float64(e.n))) - 1
		if idx < 0 {
			idx = 0
		}
		return tmp[idx]
	}
	return e.q[2]
}

// LatencySketch tracks the streaming quantiles a profile exports (p50, p90,
// p99) plus count/sum/max, in constant space. Not safe for concurrent
// use — the owning Profile serializes access.
type LatencySketch struct {
	count int64
	sum   float64
	max   float64
	q50   *p2
	q90   *p2
	q99   *p2
}

// NewLatencySketch builds an empty sketch.
func NewLatencySketch() *LatencySketch {
	return &LatencySketch{q50: newP2(0.50), q90: newP2(0.90), q99: newP2(0.99)}
}

// Observe feeds one latency sample (seconds).
func (s *LatencySketch) Observe(v float64) {
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.q50.add(v)
	s.q90.add(v)
	s.q99.add(v)
}

// Count is the number of observations.
func (s *LatencySketch) Count() int64 { return s.count }

// Mean is the arithmetic mean, or 0 when empty.
func (s *LatencySketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Quantile returns the estimate for one of the tracked quantiles (0.5, 0.9,
// 0.99); other values return the nearest tracked one.
func (s *LatencySketch) Quantile(p float64) float64 {
	switch {
	case p <= 0.5:
		return s.q50.value()
	case p <= 0.9:
		return s.q90.value()
	default:
		return s.q99.value()
	}
}

// Max is the largest observed value (0 when empty).
func (s *LatencySketch) Max() float64 { return s.max }
