package repro

import (
	"fmt"
	"time"

	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/search"
)

// Options configures an oracle: a search session's options plus one knob.
type Options struct {
	search.Options
	// ExhaustivePhysical makes the brute-force enumerators enumerate every
	// method/access combination rather than choosing greedily per step;
	// exact but exponentially more expensive, meant for small n.
	ExhaustivePhysical bool
}

// Searcher runs the rows of Table 1 the DP is compared against — brute force,
// two-phase and the §7 randomized searches — over one query. It prices every
// plan whole (cost.Model.PlanCost) under the session's work and memory
// limits, sharing no pricing code with the DP it checks.
type Searcher struct {
	opt   Options
	est   *plan.Estimator
	q     *query.Query
	stats search.Stats
}

// New builds a Searcher over opt, which must carry a model.
func New(opt Options) *Searcher {
	if opt.Final == nil {
		opt.Final = search.ByRT
	}
	if opt.Methods == nil {
		opt.Methods = plan.AllJoinMethods
	}
	return &Searcher{opt: opt, est: opt.Model.Est, q: opt.Model.Est.Q}
}

// BruteForceLeftDeep enumerates all n! join orders. In the default
// (counting) mode each permutation is realized by choosing the best
// physical extension greedily at every step — one plan considered per
// permutation, matching Table 1's n! accounting with constant space. With
// Options.ExhaustivePhysical every method × access-path combination is
// carried through, making the search exact at exponential extra cost (meant
// for small n, where it serves as ground truth for the DP algorithms).
func (s *Searcher) BruteForceLeftDeep() (*search.Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("repro: query has no relations")
	}
	start := s.begin()
	var best *search.Candidate
	perm := make([]int, 0, n)
	used := query.RelSet(0)
	var rec func(prefixes []*search.Candidate) error
	rec = func(prefixes []*search.Candidate) error {
		if len(perm) == n {
			s.stats.PlansConsidered++ // one complete join order
			for _, p := range prefixes {
				if best == nil || s.opt.Final(p, best) {
					best = p
				}
			}
			return nil
		}
		for j := 0; j < n; j++ {
			if used.Has(j) {
				continue
			}
			var next []*search.Candidate
			if len(perm) == 0 {
				cands, err := s.priceAll(s.leafChoices(j))
				if err != nil {
					return err
				}
				next = s.narrow(cands)
			} else {
				if s.skipSplit(used, query.NewRelSet(j)) {
					continue
				}
				leaves, err := s.leafChoices(j)
				if err != nil {
					return err
				}
				for _, p := range prefixes {
					for _, leaf := range leaves {
						exts, err := s.joinCandidates(p.Node, leaf)
						if err != nil {
							return err
						}
						next = append(next, exts...)
					}
				}
				next = s.narrow(next)
			}
			if len(next) == 0 {
				continue
			}
			perm = append(perm, j)
			used = used.Add(j)
			if err := rec(next); err != nil {
				return err
			}
			perm = perm[:len(perm)-1]
			used = used.Remove(j)
		}
		return nil
	}
	if err := rec(nil); err != nil {
		return nil, err
	}
	return s.result(start, best), nil
}

// BruteForceBushy enumerates every bushy tree shape and leaf order — the
// (2(n−1))!/(n−1)! plans of Table 1 — by recursively splitting relation
// sets. Physical choices are greedy per join unless ExhaustivePhysical.
func (s *Searcher) BruteForceBushy() (*search.Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("repro: query has no relations")
	}
	start := s.begin()
	var build func(set query.RelSet) ([]*search.Candidate, error)
	build = func(set query.RelSet) ([]*search.Candidate, error) {
		if set.Count() == 1 {
			cands, err := s.priceAll(s.leafChoices(set.Members()[0]))
			if err != nil {
				return nil, err
			}
			return s.narrow(cands), nil
		}
		var out []*search.Candidate
		// The first costing error stops the enumeration and is the search's
		// error: an oracle that skipped the splits it could not price would be
		// silently smaller than the plan space it is compared against.
		var firstErr error
		set.ProperSubsets(func(l, r query.RelSet) {
			if firstErr != nil || s.skipSplit(l, r) {
				return
			}
			ls, err := build(l)
			if err != nil || len(ls) == 0 {
				firstErr = err
				return
			}
			rs, err := build(r)
			if err != nil || len(rs) == 0 {
				firstErr = err
				return
			}
			for _, pl := range ls {
				for _, pr := range rs {
					cands, err := s.joinCandidates(pl.Node, pr.Node)
					if err != nil {
						firstErr = err
						return
					}
					out = append(out, s.narrow(cands)...)
				}
			}
		})
		return out, firstErr
	}
	roots, err := build(query.FullSet(n))
	if err != nil {
		return nil, err
	}
	s.stats.PlansConsidered += int64(len(roots)) // one per complete bushy plan
	return s.result(start, search.FilterFrontier(roots, nil, 0, 0, s.opt.Final)), nil
}

// TwoPhase implements the XPRS-style baseline the paper contrasts itself
// with ([HS91], §1): phase one chooses the join order, methods and access
// paths by minimizing *work* with the traditional DP of Figure 1; phase two
// keeps that tree and picks, of the parallelizations (cloning annotations)
// the limits admit, the one of best response time. The paper's thesis is
// that a join order chosen without response-time information can strand the
// optimizer on a tree whose parallelized form the one-phase DP beats.
func (s *Searcher) TwoPhase() (*search.Result, error) {
	res, _, err := s.twoPhase()
	return res, err
}

// twoPhase is TwoPhase plus the annotation options phase two chose, which
// its plan is priced under.
func (s *Searcher) twoPhase() (*search.Result, optree.AnnotateOptions, error) {
	start := s.begin()
	chosen := s.opt.Annotate
	base, err := search.New(s.opt.Options).WorkOptimalBaseline()
	if err != nil {
		return nil, chosen, err
	}
	s.stats.PlansConsidered++ // the phase-one plan

	var best *search.Candidate
	for deg := 1; deg <= len(s.opt.Model.M.CPUs()); deg++ {
		for _, minTuples := range []int64{1_000, 10_000, 100_000} {
			ann := s.opt.Annotate
			ann.MaxDegree = deg
			ann.MinTuplesPerClone = minTuples
			c, err := s.price(base.Node, ann)
			if err != nil {
				return nil, chosen, err
			}
			s.stats.PlansConsidered++
			if c != nil && (best == nil || s.opt.Final(c, best)) {
				best, chosen = c, ann
			}
		}
	}
	return s.result(start, best), chosen, nil
}

// begin starts a run: fresh counters, and the start of its pseudo-layer.
func (s *Searcher) begin() time.Time {
	s.stats = search.Stats{MaxLayerPlans: 1}
	return time.Now()
}

// result closes a run begun at start, recording it as one pseudo-layer that
// carries its totals and wall time for the profile, and returns best, its
// one kept plan, as both the winner and the frontier.
func (s *Searcher) result(start time.Time, best *search.Candidate) *search.Result {
	st, res := &s.stats, &search.Result{}
	var kept int64
	if best != nil {
		kept, res.Best, res.Frontier = 1, best, []*search.Candidate{best}
	}
	st.Layers = append(st.Layers, search.LayerRecord{
		Card: len(s.q.Relations), Subsets: 1, Kept: kept, MaxCover: 1, Workers: 1,
		Considered: st.PlansConsidered, Physical: st.PhysicalPlans,
		PrunedWork: st.PrunedWork, PrunedMemory: st.PrunedMemory,
		Start: start, WallNanos: time.Since(start).Nanoseconds(),
	})
	res.Stats = *st
	return res
}

// price prices a whole plan tree under ann, or returns nil when the work or
// the memory limit prunes it.
func (s *Searcher) price(n *plan.Node, ann optree.AnnotateOptions) (*search.Candidate, error) {
	d, op, err := s.opt.Model.PlanCost(n, s.opt.Expand, ann)
	if err != nil {
		return nil, err
	}
	s.stats.PhysicalPlans++
	switch {
	case s.opt.WorkLimit > 0 && d.Work() > s.opt.WorkLimit:
		s.stats.Pruned++
		s.stats.PrunedWork++
	case s.opt.MemoryLimit > 0 && s.opt.Model.MemoryEstimate(op).PeakPages > s.opt.MemoryLimit:
		s.stats.Pruned++
		s.stats.PrunedMemory++
	default:
		return &search.Candidate{Node: n, Desc: d}, nil
	}
	return nil, nil
}

// priceAll prices plan trees in order, dropping the ones a limit prunes. It
// takes the error of the call that made them, so it can wrap that call.
func (s *Searcher) priceAll(nodes []*plan.Node, err error) ([]*search.Candidate, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*search.Candidate, 0, len(nodes))
	for _, n := range nodes {
		c, err := s.price(n, s.opt.Annotate)
		if err != nil {
			return nil, err
		}
		if c != nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// joinCandidates prices every join method over a fixed (left, right) pair of
// subtrees. Sort-merge and hash join require an equijoin predicate; nested
// loops also covers cross products.
func (s *Searcher) joinCandidates(left, right *plan.Node) ([]*search.Candidate, error) {
	cross := len(s.q.JoinsBetween(left.Rels, right.Rels)) == 0
	var nodes []*plan.Node
	for _, m := range s.opt.Methods {
		if cross && m != plan.NestedLoops {
			continue
		}
		j, err := s.est.Join(left, right, m)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, j)
	}
	return s.priceAll(nodes, nil)
}

// leafChoices returns the raw leaf nodes for a relation (unpriced): the
// sequential scan plus one index scan per index.
func (s *Searcher) leafChoices(pos int) ([]*plan.Node, error) {
	rel := s.q.Relations[pos]
	leaf, err := s.est.Leaf(rel, plan.SeqScan, nil)
	if err != nil {
		return nil, err
	}
	out := []*plan.Node{leaf}
	for _, idx := range s.opt.Model.Cat.IndexesOn(rel) {
		l, err := s.est.Leaf(rel, plan.IndexScan, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// skipSplit applies the cross-product heuristic to joining l with r: when
// their union is connected there is always a predicate-connected way to
// build it, so predicate-less splits are skipped.
func (s *Searcher) skipSplit(l, r query.RelSet) bool {
	return s.opt.AvoidCrossProducts && len(s.q.JoinsBetween(l, r)) == 0 && s.q.Connected(l.Union(r))
}

// narrow keeps all candidates in exhaustive mode, the single best under
// Final otherwise.
func (s *Searcher) narrow(cands []*search.Candidate) []*search.Candidate {
	if s.opt.ExhaustivePhysical || len(cands) <= 1 {
		return cands
	}
	return []*search.Candidate{search.FilterFrontier(cands, nil, 0, 0, s.opt.Final)}
}
