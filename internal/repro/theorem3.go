package repro

import (
	"math"
	"math/rand"
)

// Theorem3Bound is the paper's upper bound on the expected cover-set size of
// m random points in l dimensions with independent coordinates:
//
//	E[|cover|] ≤ 2^l · (1 − (1 − 2^{−l})^m)
//
// It is at most 2^l for any m, which is what makes partial-order DP with a
// small l practical (§6.2).
//
// The formula is exactly the expected number of distinct cells hit by m
// uniform draws over 2^l cells — the natural model when every metric
// dimension is a coarse two-valued property (an interesting order is either
// present or absent, a resource is either loaded or idle). For continuous
// dimensions the expected number of Pareto minima grows like
// (ln m)^(l−1)/(l−1)! and eventually exceeds the bound; the paper itself
// flags the independence assumption as "likely to be optimistic". The
// experiment below measures both regimes.
func Theorem3Bound(m int, l int) float64 {
	p := math.Pow(2, float64(l))
	return p * (1 - math.Pow(1-1/p, float64(m)))
}

// Dist selects the coordinate distribution for the Theorem 3 experiment.
type Dist int

const (
	// Binary draws each coordinate from {0, 1} — the coarse-dimension
	// model under which the paper's bound is tight.
	Binary Dist = iota
	// Continuous draws each coordinate uniformly from [0, 1).
	Continuous
)

// String names the distribution.
func (d Dist) String() string {
	if d == Binary {
		return "binary"
	}
	return "continuous"
}

// CoverSizeOf computes the exact cover (Pareto-minima) count of a point set
// under component-wise ≤, counting duplicate minima once.
func CoverSizeOf(points [][]float64) int {
	dominates := func(a, b []float64) bool {
		for i := range a {
			if a[i] > b[i] {
				return false
			}
		}
		return true
	}
	count := 0
	for i, p := range points {
		minimal := true
		for j, q := range points {
			if i == j {
				continue
			}
			switch {
			case dominates(q, p) && !dominates(p, q):
				// q strictly covers p.
				minimal = false
			case j < i && dominates(q, p) && dominates(p, q):
				// Duplicates: keep only the first occurrence.
				minimal = false
			}
			if !minimal {
				break
			}
		}
		if minimal {
			count++
		}
	}
	return count
}

// Theorem3Trial draws m points in l dimensions from the distribution and
// returns the cover size.
func Theorem3Trial(m, l int, dist Dist, rng *rand.Rand) int {
	points := make([][]float64, m)
	for i := range points {
		pt := make([]float64, l)
		for d := range pt {
			if dist == Binary {
				pt[d] = float64(rng.Intn(2))
			} else {
				pt[d] = rng.Float64()
			}
		}
		points[i] = pt
	}
	return CoverSizeOf(points)
}

// Theorem3Experiment estimates the expected cover size over trials and
// returns (measured mean, analytic bound). Deterministic for a given seed.
func Theorem3Experiment(m, l, trials int, dist Dist, seed int64) (mean, bound float64) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for t := 0; t < trials; t++ {
		total += Theorem3Trial(m, l, dist, rng)
	}
	return float64(total) / float64(trials), Theorem3Bound(m, l)
}
