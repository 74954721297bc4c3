package search

// TwoPhase implements the XPRS-style baseline the paper contrasts itself
// with ([HS91], §1): phase one chooses the join order, methods and access
// paths by minimizing *work* with the traditional DP of Figure 1; phase two
// keeps that tree fixed and only tunes its parallelization (the cloning
// annotation), picking the best response time. The paper's thesis is that
// deciding join order without response-time information can strand the
// optimizer on a tree whose parallelized form is inferior to what the
// one-phase partial-order DP finds; benchmarks compare the two.
func (s *Searcher) TwoPhase() (*Result, error) {
	mark := s.beginLayer()
	base, err := s.WorkOptimalBaseline()
	if err != nil {
		return nil, err
	}
	s.stats.PlansConsidered++ // the phase-one plan

	maxDeg := len(s.opt.Model.M.CPUs())
	var best *Candidate
	for deg := 1; deg <= maxDeg; deg++ {
		for _, minTuples := range []int64{1_000, 10_000, 100_000} {
			ann := s.opt.Annotate
			ann.MaxDegree = deg
			ann.MinTuplesPerClone = minTuples
			d, _, err := s.opt.Model.PlanCost(base.Node, s.opt.Expand, ann)
			if err != nil {
				return nil, err
			}
			s.stats.PlansConsidered++
			s.stats.PhysicalPlans++
			c := &Candidate{Node: base.Node, Desc: d}
			if best == nil || s.opt.Final(c, best) {
				best = c
			}
		}
	}
	s.stats.MaxLayerPlans = 1
	kept := int64(0)
	if best != nil {
		kept = 1
	}
	// One pseudo-layer spanning both phases.
	s.endLayer(mark, len(s.q.Relations), 1, 1, kept, 1)
	return &Result{Best: best, Frontier: []*Candidate{best}, Stats: s.stats}, nil
}
