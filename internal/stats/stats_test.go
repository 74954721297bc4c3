package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRanks(t *testing.T) {
	r := Ranks([]float64{30, 10, 20})
	if r[0] != 2 || r[1] != 0 || r[2] != 1 {
		t.Fatalf("Ranks = %v", r)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %g", got)
	}
	rev := []float64{40, 30, 20, 10}
	if got := Spearman(a, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Error("single sample should be 0")
	}
	if Spearman([]float64{1, 2}, []float64{3}) != 0 {
		t.Error("length mismatch should be 0")
	}
}

func TestPermutations(t *testing.T) {
	ps := Permutations(3)
	if len(ps) != 6 {
		t.Fatalf("3! = %d", len(ps))
	}
	seen := map[[3]int]bool{}
	for _, p := range ps {
		var key [3]int
		copy(key[:], p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
	if got := Permutations(0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("Permutations(0) = %v", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
}

// Property: Spearman is bounded in [-1, 1].
func TestQuickSpearmanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(raw[i])
			b[i] = float64(raw[n+i])
		}
		rho := Spearman(a, b)
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
