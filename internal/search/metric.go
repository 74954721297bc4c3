package search

// Metric is a pruning metric α (§6.3): a partial order over candidates.
// Dominates(a, b) means a ≤α b — a is at least as good as b in every
// dimension, so b can never beat a in any extension and may be pruned
// (provided the metric satisfies the principle of optimality).
type Metric interface {
	// Name labels the metric in reports.
	Name() string
	// Dominates reports a ≤α b.
	Dominates(a, b *Candidate) bool
	// Dims is the dimensionality l of the metric, used by the Theorem 3
	// cover-size bound 2^l.
	Dims() int
}

// Comparator is a strict total preference between complete plans: returns
// true when a is strictly preferable to b.
type Comparator func(a, b *Candidate) bool

// ByRT prefers lower response time, breaking ties by lower work and then by
// plan string for determinism.
func ByRT(a, b *Candidate) bool {
	if a.RT() != b.RT() {
		return a.RT() < b.RT()
	}
	if a.Work() != b.Work() {
		return a.Work() < b.Work()
	}
	return a.Node.String() < b.Node.String()
}

// ByWork prefers lower total work — the traditional System R objective.
func ByWork(a, b *Candidate) bool {
	if a.Work() != b.Work() {
		return a.Work() < b.Work()
	}
	if a.RT() != b.RT() {
		return a.RT() < b.RT()
	}
	return a.Node.String() < b.Node.String()
}

// WorkMetric is the traditional 1-dimensional total order on work (§3).
// It satisfies the principle of optimality under physical transparency
// (Theorem 1) but does not predict response time.
type WorkMetric struct{}

// Name implements Metric.
func (WorkMetric) Name() string { return "work" }

// Dims implements Metric.
func (WorkMetric) Dims() int { return 1 }

// Dominates implements Metric.
func (WorkMetric) Dominates(a, b *Candidate) bool { return a.Work() <= b.Work() }

// totalOrder turns a 1-dimensional metric into a strict total order by
// sending its ties to a final comparator. A cover set under it always holds
// exactly one plan, which is how Figure 1 runs as the special case of
// Figure 2 — and why the plan a tie keeps does not depend on the order in
// which the candidates were enumerated.
type totalOrder struct {
	Metric
	final Comparator
}

// Dominates implements Metric: a ≤ b, and on a tie b is not strictly
// preferred by the final comparator.
func (t totalOrder) Dominates(a, b *Candidate) bool {
	if !t.Metric.Dominates(a, b) {
		return false
	}
	return !t.Metric.Dominates(b, a) || !t.final(b, a)
}

// RTMetric is the naive 1-dimensional total order on response time. Example
// 3 of the paper shows it violates the principle of optimality: it exists
// here so that the violation can be demonstrated, not for production use.
type RTMetric struct{}

// Name implements Metric.
func (RTMetric) Name() string { return "response-time" }

// Dims implements Metric.
func (RTMetric) Dims() int { return 1 }

// Dominates implements Metric.
func (RTMetric) Dominates(a, b *Candidate) bool { return a.RT() <= b.RT() }

// ResourceVectorMetric is the §6.3 fix: the resource vector itself as the
// pruning metric. a dominates b iff a's first- and last-tuple resource
// vectors (time and every work component) are all ≤ b's. By construction it
// correctly predicts response time; the cost calculus is monotone in every
// dimension (for δ disabled), so the principle of optimality holds.
type ResourceVectorMetric struct {
	// L is the machine's resource count, fixed at construction.
	L int
}

// Name implements Metric.
func (m ResourceVectorMetric) Name() string { return "resource-vector" }

// Dims implements Metric: first/last time plus l work components each.
func (m ResourceVectorMetric) Dims() int { return 2 * (m.L + 1) }

// Dominates implements Metric.
func (m ResourceVectorMetric) Dominates(a, b *Candidate) bool {
	const eps = 1e-9
	if a.Desc.First.T > b.Desc.First.T+eps || a.Desc.Last.T > b.Desc.Last.T+eps {
		return false
	}
	for i := range a.Desc.First.W {
		if a.Desc.First.W[i] > b.Desc.First.W[i]+eps {
			return false
		}
		if a.Desc.Last.W[i] > b.Desc.Last.W[i]+eps {
			return false
		}
	}
	return true
}

// OrderedMetric wraps a base metric with the interesting-order dimension of
// §6.3: a dominates b only if, additionally, b's ordering is a subsequence
// of a's (a's order is at least as useful downstream). This is how the
// classic System R interesting-orders heuristic becomes a sound partial
// order instead of a side table.
type OrderedMetric struct {
	Base Metric
}

// Name implements Metric.
func (m OrderedMetric) Name() string { return m.Base.Name() + "+order" }

// Dims implements Metric: one extra dimension for the ordering.
func (m OrderedMetric) Dims() int { return m.Base.Dims() + 1 }

// Dominates implements Metric.
func (m OrderedMetric) Dominates(a, b *Candidate) bool {
	if !b.Order().Subsequence(a.Order()) {
		return false
	}
	return m.Base.Dominates(a, b)
}
