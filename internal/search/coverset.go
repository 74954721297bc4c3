package search

// CoverSet maintains the set of mutually incomparable plans of Figure 2
// (lines L3–L6): offering a new plan rejects it if some stored plan
// dominates it (Dominated), otherwise deletes every stored plan the newcomer
// dominates and keeps the newcomer (Admit). The invariant is that stored
// plans are pairwise incomparable and every plan ever offered is covered by
// some stored plan.
//
// An optional cap turns the exact cover into a beam: when the cover
// outgrows Cap, the worst member under Rank is evicted. This forfeits the
// optimality guarantee (an evicted plan might have been the one whose
// extension wins) in exchange for bounded search cost — the practical
// mitigation for the cover explosion continuous metric dimensions cause.
type CoverSet struct {
	metric Metric
	plans  []*Candidate

	// Cap bounds the cover size when > 0; Rank picks eviction victims
	// (true = first argument preferable, i.e. kept longer).
	Cap  int
	Rank Comparator

	// Inserted and Rejected count insertion outcomes for statistics.
	Inserted, Rejected int64
	// Evicted counts cap-driven removals (beam mode only).
	Evicted int64
}

// NewCoverSet builds an empty cover set under the metric.
func NewCoverSet(m Metric) *CoverSet { return &CoverSet{metric: m} }

// NewBeamCoverSet builds a capped cover set (beam) with the eviction rank.
func NewBeamCoverSet(m Metric, cap int, rank Comparator) *CoverSet {
	return &CoverSet{metric: m, Cap: cap, Rank: rank}
}

// Dominated is the first half of offering a candidate (line L3): it reports
// whether some stored plan dominates c, counting c as rejected if so.
func (cs *CoverSet) Dominated(c *Candidate) bool {
	for _, p := range cs.plans {
		if cs.metric.Dominates(p, c) {
			cs.Rejected++
			return true
		}
	}
	return false
}

// Admit is the second half (lines L4–L6): it deletes every stored plan c
// dominates and keeps c, reporting whether c is still stored (a cap may evict it).
func (cs *CoverSet) Admit(c *Candidate) bool {
	kept := cs.plans[:0]
	for _, p := range cs.plans {
		if !cs.metric.Dominates(c, p) {
			kept = append(kept, p)
		}
	}
	cs.plans = append(kept, c)
	cs.Inserted++
	if cs.Cap > 0 && cs.Rank != nil && len(cs.plans) > cs.Cap {
		worst := 0
		for i := 1; i < len(cs.plans); i++ {
			if cs.Rank(cs.plans[worst], cs.plans[i]) {
				worst = i
			}
		}
		evicted := cs.plans[worst] == c
		cs.plans[worst] = cs.plans[len(cs.plans)-1]
		cs.plans = cs.plans[:len(cs.plans)-1]
		cs.Evicted++
		if evicted {
			return false
		}
	}
	return true
}

// Plans returns the stored cover; the slice is shared and must not be
// modified by callers.
func (cs *CoverSet) Plans() []*Candidate { return cs.plans }

// Len is the current cover size (the paper's k).
func (cs *CoverSet) Len() int { return len(cs.plans) }

// Empty reports whether nothing survived insertion.
func (cs *CoverSet) Empty() bool { return len(cs.plans) == 0 }
