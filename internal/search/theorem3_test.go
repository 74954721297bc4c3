package search_test

// The Theorem 3 experiment (internal/repro) bounds the cover sets this
// package's partial-order DP keeps; its tests stay beside the DP's.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paropt/internal/repro"
)

func TestTheorem3BoundFormula(t *testing.T) {
	// l=1, m→∞: bound → 2.
	if got := repro.Theorem3Bound(1000, 1); math.Abs(got-2) > 1e-6 {
		t.Errorf("bound(1000,1) = %g, want ≈ 2", got)
	}
	// m=1: bound = 1 for any l.
	for l := 1; l <= 6; l++ {
		if got := repro.Theorem3Bound(1, l); math.Abs(got-1) > 1e-9 {
			t.Errorf("bound(1,%d) = %g, want 1", l, got)
		}
	}
	// Monotone in m, bounded by 2^l.
	prev := 0.0
	for m := 1; m <= 64; m *= 2 {
		b := repro.Theorem3Bound(m, 3)
		if b < prev {
			t.Fatalf("bound not monotone at m=%d", m)
		}
		if b > 8 {
			t.Fatalf("bound(%d,3) = %g exceeds 2^l", m, b)
		}
		prev = b
	}
}

func TestCoverSizeOf(t *testing.T) {
	pts := [][]float64{{1, 5}, {5, 1}, {6, 6}, {1, 5}}
	// Minima: (1,5) and (5,1); the duplicate (1,5) counts once.
	if got := repro.CoverSizeOf(pts); got != 2 {
		t.Errorf("repro.CoverSizeOf = %d, want 2", got)
	}
	if got := repro.CoverSizeOf(nil); got != 0 {
		t.Errorf("repro.CoverSizeOf(nil) = %d", got)
	}
	if got := repro.CoverSizeOf([][]float64{{3}}); got != 1 {
		t.Errorf("singleton cover = %d", got)
	}
}

// TestTheorem3BinaryMatchesBound: with binary dimensions the measured cover
// size must respect the bound (and stay close to it for small m).
func TestTheorem3BinaryMatchesBound(t *testing.T) {
	for _, tc := range []struct{ m, l int }{{4, 2}, {16, 2}, {16, 3}, {64, 4}} {
		mean, bound := repro.Theorem3Experiment(tc.m, tc.l, 300, repro.Binary, 7)
		if mean > bound+1e-9 {
			t.Errorf("m=%d l=%d: measured %g exceeds bound %g", tc.m, tc.l, mean, bound)
		}
		if mean <= 0 {
			t.Errorf("m=%d l=%d: measured %g not positive", tc.m, tc.l, mean)
		}
	}
}

// TestTheorem3ContinuousOptimistic documents the independence assumption
// being "optimistic": for continuous dimensions and large m the measured
// expected cover size exceeds the 2^l-capped bound (E[minima] ~ ln m for
// l = 2).
func TestTheorem3ContinuousOptimistic(t *testing.T) {
	mean, bound := repro.Theorem3Experiment(2000, 2, 50, repro.Continuous, 11)
	if mean <= bound {
		t.Errorf("expected continuous mean (%g) to exceed the binary-model bound (%g) at m=2000, l=2",
			mean, bound)
	}
}

func TestTheorem3Deterministic(t *testing.T) {
	a, _ := repro.Theorem3Experiment(32, 3, 50, repro.Binary, 5)
	b, _ := repro.Theorem3Experiment(32, 3, 50, repro.Binary, 5)
	if a != b {
		t.Error("experiment must be deterministic for a fixed seed")
	}
}

func TestDistString(t *testing.T) {
	if repro.Binary.String() != "binary" || repro.Continuous.String() != "continuous" {
		t.Error("Dist strings wrong")
	}
}

// Property: the cover of any point set is non-empty (for non-empty input)
// and no larger than the set, and every point is dominated by some minimum.
func TestQuickCoverSizeBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var pts [][]float64
		for i := 0; i+1 < len(raw) && len(pts) < 40; i += 2 {
			pts = append(pts, []float64{float64(raw[i] % 16), float64(raw[i+1] % 16)})
		}
		k := repro.CoverSizeOf(pts)
		return k >= 1 && k <= len(pts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTheorem3TrialDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := repro.Theorem3Trial(1, 4, repro.Continuous, rng); got != 1 {
		t.Errorf("single point cover = %d", got)
	}
	// 1-dimensional cover is always 1 (total order).
	for i := 0; i < 10; i++ {
		if got := repro.Theorem3Trial(20, 1, repro.Continuous, rng); got != 1 {
			t.Fatalf("1-D cover = %d, want 1", got)
		}
	}
}
