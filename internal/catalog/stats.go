package catalog

// Selectivity estimation following System R conventions. These functions are
// pure so the cost model and the search can share them.

// JoinSelectivity estimates the selectivity of an equijoin between two
// columns as 1/max(NDV(a), NDV(b)).
func JoinSelectivity(a, b Column) float64 {
	n := a.NDV
	if b.NDV > n {
		n = b.NDV
	}
	if n < 1 {
		n = 1
	}
	return 1.0 / float64(n)
}

// EqSelectivity estimates the selectivity of column = constant as 1/NDV.
func EqSelectivity(c Column) float64 {
	n := c.NDV
	if n < 1 {
		n = 1
	}
	return 1.0 / float64(n)
}

// JoinCard estimates the output cardinality of joining inputs with the given
// cardinalities through a predicate of the given selectivity, with a 1-tuple
// floor so downstream estimates stay positive.
func JoinCard(leftCard, rightCard int64, sel float64) int64 {
	est := float64(leftCard) * float64(rightCard) * sel
	if est < 1 {
		return 1
	}
	return int64(est)
}
