package search

import (
	"fmt"

	"paropt/internal/plan"
	"paropt/internal/query"
)

// One dynamic program serves Figures 1 and 2 and their bushy variants. It
// has two parameters. The metric decides what a relation subset keeps:
// under a partial order a cover set of incomparable plans (Figure 2), under
// a total order the cover degenerates to the single optimal plan (Figure 1).
// The split enumerator decides which trees are built: left-deep extends the
// plans of S∖{Rj} by Rj, bushy joins the plans of every ordered split of S.

// DPLeftDeep is the System R dynamic program of Figure 1: one optimal plan
// per relation subset under a total-order metric (default: work), built by
// extending the optimal plan of each (i−1)-subset with the missing relation.
// Ties under the metric go to Options.Final.
func (s *Searcher) DPLeftDeep() (*Result, error) { return s.dp(s.totalMetric(), leftDeepSplits) }

// DPBushy extends Figure 1 to bushy trees: every subset's optimal plan is
// the best join over every ordered split (S1, S2) of the subset, which is
// what takes the plan count from O(2^n) to O(3^n) (§6.4, Table 1).
func (s *Searcher) DPBushy() (*Result, error) { return s.dp(s.totalMetric(), bushySplits) }

// PODPLeftDeep is the partial-order dynamic program of Figure 2: instead of
// one optimal plan per relation subset it keeps a cover set of incomparable
// plans under the pruning metric (default: the resource-vector metric of
// §6.3), and extends every plan of every cover set. The final answer is the
// best-cost member of the full set's cover (line 14, bestCost).
func (s *Searcher) PODPLeftDeep() (*Result, error) { return s.dp(s.partialMetric(), leftDeepSplits) }

// PODPBushy is Figure 2 generalized to bushy trees per §6.4: cover sets per
// subset, extended over every ordered split and every pair of cover-set
// members.
func (s *Searcher) PODPBushy() (*Result, error) { return s.dp(s.partialMetric(), bushySplits) }

// totalMetric resolves the Figure 1 metric: the configured total order
// (default work) with its ties sent to Final.
func (s *Searcher) totalMetric() Metric {
	metric := s.opt.Metric
	if metric == nil {
		metric = WorkMetric{}
	}
	return totalOrder{Metric: metric, final: s.opt.Final}
}

// partialMetric resolves the Figure 2 metric. On multi-node machines the
// network links add resource-vector coordinates, which is what makes local
// and repartitioned plans incomparable.
func (s *Searcher) partialMetric() Metric {
	if s.opt.Metric != nil {
		return s.opt.Metric
	}
	return OrderedMetric{Base: ResourceVectorMetric{L: s.opt.Model.Dim()}}
}

// splits enumerates the ways to assemble one relation subset from subsets
// the DP has already solved.
type splits struct {
	// each calls join for every (left subplan, right subplan) pair that
	// builds set, charging PlansConsidered by Table 1's accounting for its
	// tree shape, and returns the first error join reports.
	each func(s *Searcher, set query.RelSet, solved map[query.RelSet]*CoverSet, join joinFunc) error
	// allLayers says the splits reach below the previous cardinality layer,
	// so the driver must retain every solved cover, not just the last layer.
	allLayers bool
}

// joinFunc prices every join method over one (left, right) subplan pair and
// offers the survivors to the cover of the subset being solved.
type joinFunc func(left *Candidate, right *plan.Node) error

var (
	leftDeepSplits = splits{each: (*Searcher).extensions}
	bushySplits    = splits{each: (*Searcher).orderedSplits, allLayers: true}
)

// extensions is the left-deep enumerator: every plan of S∖{Rj} joined with
// every access path of Rj, one plan considered per (subplan, Rj) — the
// paper's joinPlan(p, Rj).
func (s *Searcher) extensions(set query.RelSet, solved map[query.RelSet]*CoverSet, join joinFunc) error {
	var err error
	set.Singletons(func(j int, single query.RelSet) {
		rest := set.Minus(single)
		cover, ok := solved[rest]
		if err != nil || !ok || s.skipSplit(rest, single) {
			return
		}
		var leaves []*plan.Node
		if leaves, err = s.leafChoices(j); err != nil {
			return
		}
		for _, p := range cover.Plans() { // line L1
			s.stats.PlansConsidered++ // new := joinPlan(p, Rj) (L2)
			for _, leaf := range leaves {
				if err = join(p, leaf); err != nil {
					return
				}
			}
		}
	})
	return err
}

// orderedSplits is the bushy enumerator: every pair of plans of every
// ordered proper split (S1, S2), one plan considered per pair.
func (s *Searcher) orderedSplits(set query.RelSet, solved map[query.RelSet]*CoverSet, join joinFunc) error {
	var err error
	set.ProperSubsets(func(l, r query.RelSet) {
		cl, okL := solved[l]
		cr, okR := solved[r]
		if err != nil || !okL || !okR || s.skipSplit(l, r) {
			return
		}
		for _, pl := range cl.Plans() {
			for _, pr := range cr.Plans() {
				s.stats.PlansConsidered++
				if err = join(pl, pr.Node); err != nil {
					return
				}
			}
		}
	})
	return err
}

// dp is the one layer loop: per cardinality layer and per subset it prices
// every join method over the pairs the split enumerator yields and keeps
// the survivors in the subset's cover set (lines L3–L6 of Figure 2). The
// first costing error stops the search and is returned.
func (s *Searcher) dp(metric Metric, sp splits) (*Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("search: query has no relations")
	}
	s.stats.MetricDims = metric.Dims()

	mark := s.beginLayer()
	solved := make(map[query.RelSet]*CoverSet, n)
	s.root = n == 1
	for i := 0; i < n; i++ {
		s.stats.PlansConsidered++ // accessPlans(Ri)
		leaves, err := s.leafChoices(i)
		if err != nil {
			return nil, err
		}
		cs := s.newCover(metric)
		if err := s.extendInto(cs, &nothing, leaves); err != nil {
			return nil, err
		}
		if !cs.Empty() {
			solved[query.NewRelSet(i)] = cs
		}
	}
	s.closeCoverLayer(mark, 1, solved)

	// best is the cover of the subset being solved; join, built once for the
	// whole search, feeds whichever cover best currently names.
	var best *CoverSet
	join := func(left *Candidate, right *plan.Node) error {
		nodes, err := s.joinNodes(left.Node, right)
		if err != nil {
			return err
		}
		return s.extendInto(best, left, nodes)
	}
	for i := 2; i <= n; i++ {
		mark = s.beginLayer()
		cur := make(map[query.RelSet]*CoverSet)
		s.root = i == n
		var err error
		query.SubsetsOfSize(n, i, func(set query.RelSet) {
			if err != nil {
				return
			}
			best = s.newCover(metric) // bestPlans := ∅ (line 5)
			if err = sp.each(s, set, solved, join); err != nil || best.Empty() {
				return
			}
			cur[set] = best
			s.noteOrderClasses(best)
		})
		if err != nil {
			return nil, err
		}
		s.closeCoverLayer(mark, i, cur)
		if sp.allLayers {
			for set, cs := range cur {
				solved[set] = cs
			}
		} else {
			solved = cur
		}
	}
	return s.finish(solved[query.FullSet(n)])
}

// extendInto prices every plan of nodes over left (extend) and offers the
// survivors to cs (insert).
func (s *Searcher) extendInto(cs *CoverSet, left *Candidate, nodes []*plan.Node) error {
	for _, n := range nodes {
		c, err := s.extend(left, n)
		if err != nil {
			return err
		}
		if c != nil {
			s.insert(cs, c)
		}
	}
	return nil
}

// closeCoverLayer records a finished layer: the space statistic (plans
// stored across the layer's covers) plus the layer's telemetry record.
func (s *Searcher) closeCoverLayer(mark layerMark, card int, layer map[query.RelSet]*CoverSet) {
	var kept int64
	maxCover := 0
	for _, cs := range layer {
		kept += int64(cs.Len())
		if cs.Len() > maxCover {
			maxCover = cs.Len()
		}
	}
	if kept > s.stats.MaxLayerPlans {
		s.stats.MaxLayerPlans = kept
	}
	s.endLayer(mark, card, len(layer), kept, maxCover)
}

// newCover builds a cover set honoring the CoverCap option.
func (s *Searcher) newCover(metric Metric) *CoverSet {
	if s.opt.CoverCap > 0 {
		// Evict the worst plan under the final comparator.
		return NewBeamCoverSet(metric, s.opt.CoverCap, func(a, b *Candidate) bool {
			return !s.opt.Final(b, a) // keep a if b is not strictly better
		})
	}
	return NewCoverSet(metric)
}

// insert offers the candidate extend just priced to a cover set, promoting it
// only once no stored plan dominates it, and tracks statistics. A rejected
// candidate is classified by what rejected it: the Theorem 3 dominance test
// or beam eviction (it survived dominance but was the cap's victim).
func (s *Searcher) insert(cs *CoverSet, c *Candidate) {
	switch {
	case cs.Dominated(c):
		s.stats.Pruned++
		s.stats.PrunedDominance++
	case !cs.Admit(s.promote(c)):
		s.stats.Pruned++
		s.stats.PrunedBeam++
	}
	if cs.Len() > s.stats.MaxCoverSize {
		s.stats.MaxCoverSize = cs.Len()
	}
}

// noteOrderClasses updates the bindings statistic: distinct orderings in a
// finalized cover.
func (s *Searcher) noteOrderClasses(cs *CoverSet) {
	var classes []plan.Ordering
next:
	for _, c := range cs.Plans() {
		for _, o := range classes {
			if o.Equal(c.Order()) {
				continue next
			}
		}
		classes = append(classes, c.Order())
	}
	if len(classes) > s.stats.MaxOrderClasses {
		s.stats.MaxOrderClasses = len(classes)
	}
}

// finish extracts the result from the full set's cover. A root is never
// extended, so its candidates were kept without operator trees, and every
// layer's below is garbage once the search returns.
func (s *Searcher) finish(cs *CoverSet) (*Result, error) {
	if cs == nil || cs.Empty() {
		return &Result{Stats: s.stats}, nil
	}
	frontier := append([]*Candidate(nil), cs.Plans()...)
	best := s.bestOf(frontier)
	return &Result{
		Best:     best,
		Frontier: frontier,
		Stats:    s.stats,
	}, nil
}
