package search

import "math"

// The analytic columns of Table 1: each search space's size and what the
// dynamic programs consider and store, which the measured Stats must match.

// LeftDeepSpaceSize is n!: the number of left-deep join orders.
func LeftDeepSpaceSize(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// BushySpaceSize is (2(n−1))!/(n−1)!: the number of bushy trees (shapes ×
// leaf orders), the "size of space" column of Table 1.
func BushySpaceSize(n int) float64 {
	if n < 1 {
		return 0
	}
	// (2m)!/m! with m = n−1, computed as the product (m+1)(m+2)...(2m).
	m := n - 1
	f := 1.0
	for i := m + 1; i <= 2*m; i++ {
		f *= float64(i)
	}
	return f
}

// DPLeftDeepPlansFormula is n·2^(n−1): Table 1's analytic count of plans
// considered by left-deep DP.
func DPLeftDeepPlansFormula(n int) float64 {
	return float64(n) * math.Pow(2, float64(n-1))
}

// DPBushyPlansFormula is 3^n − 2^(n+1) + n + 1: Table 1's analytic count
// for bushy DP.
func DPBushyPlansFormula(n int) float64 {
	return math.Pow(3, float64(n)) - math.Pow(2, float64(n+1)) + float64(n) + 1
}

// Binomial returns C(n, k) as a float.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	f := 1.0
	for i := 1; i <= k; i++ {
		f = f * float64(n-k+i) / float64(i)
	}
	return f
}

// DPLeftDeepSpaceFormula is C(n, ⌈n/2⌉): Table 1's analytic peak storage
// for left-deep DP.
func DPLeftDeepSpaceFormula(n int) float64 {
	return Binomial(n, (n+1)/2)
}
