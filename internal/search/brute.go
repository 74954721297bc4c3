package search

import (
	"fmt"

	"paropt/internal/query"
)

// BruteForceLeftDeep enumerates all n! join orders. In the default
// (counting) mode each permutation is realized by choosing the best
// physical extension greedily at every step — one plan considered per
// permutation, matching Table 1's n! accounting with constant space. With
// Options.ExhaustivePhysical every method × access-path combination is
// carried through, making the search exact at exponential extra cost (meant
// for small n, where it serves as ground truth for the DP algorithms).
func (s *Searcher) BruteForceLeftDeep() (*Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("search: query has no relations")
	}
	mark := s.beginLayer()
	var best *Candidate
	keep := func(c *Candidate) {
		if c != nil && (best == nil || s.opt.Final(c, best)) {
			best = c
		}
	}
	s.stats.MaxLayerPlans = 1

	perm := make([]int, 0, n)
	used := query.RelSet(0)
	var rec func(prefixes []*Candidate) error
	rec = func(prefixes []*Candidate) error {
		if len(perm) == n {
			s.stats.PlansConsidered++ // one complete join order
			for _, p := range prefixes {
				keep(p)
			}
			return nil
		}
		for j := 0; j < n; j++ {
			if used.Has(j) {
				continue
			}
			var next []*Candidate
			if len(perm) == 0 {
				cands, err := s.accessCandidates(j)
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
	kept := int64(0)
	if best != nil {
		kept = 1
	}
	// One pseudo-layer: brute force is not layered, but the record still
	// carries the search's totals and wall time for the profile.
	s.endLayer(mark, n, 1, kept, 1)
	if best == nil {
		return &Result{Stats: s.stats}, nil
	}
	return &Result{Best: best, Frontier: []*Candidate{best}, Stats: s.stats}, nil
}

// BruteForceBushy enumerates every bushy tree shape and leaf order — the
// (2(n−1))!/(n−1)! plans of Table 1 — by recursively splitting relation
// sets. Physical choices are greedy per join unless ExhaustivePhysical.
func (s *Searcher) BruteForceBushy() (*Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("search: query has no relations")
	}
	mark := s.beginLayer()
	var best *Candidate
	s.stats.MaxLayerPlans = 1

	var build func(set query.RelSet) ([]*Candidate, error)
	build = func(set query.RelSet) ([]*Candidate, error) {
		if set.Count() == 1 {
			cands, err := s.accessCandidates(set.Members()[0])
			if err != nil {
				return nil, err
			}
			return s.narrow(cands), nil
		}
		var out []*Candidate
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
	for _, c := range roots {
		s.stats.PlansConsidered++ // one complete bushy plan
		if best == nil || s.opt.Final(c, best) {
			best = c
		}
	}
	kept := int64(0)
	if best != nil {
		kept = 1
	}
	s.endLayer(mark, n, 1, kept, 1)
	if best == nil {
		return &Result{Stats: s.stats}, nil
	}
	return &Result{Best: best, Frontier: []*Candidate{best}, Stats: s.stats}, nil
}

// narrow keeps all candidates in exhaustive mode, the single best otherwise.
func (s *Searcher) narrow(cands []*Candidate) []*Candidate {
	if s.opt.ExhaustivePhysical || len(cands) <= 1 {
		return cands
	}
	if b := s.bestOf(cands); b != nil {
		return []*Candidate{b}
	}
	return nil
}

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
	return float64(n) * pow2(n-1)
}

// DPBushyPlansFormula is 3^n − 2^(n+1) + n + 1: Table 1's analytic count
// for bushy DP.
func DPBushyPlansFormula(n int) float64 {
	p3 := 1.0
	for i := 0; i < n; i++ {
		p3 *= 3
	}
	return p3 - pow2(n+1) + float64(n) + 1
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

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}

// Optimal plan under work: convenience used by the §2 bounds, which need
// the work-optimal baseline (Wo, To).
func (s *Searcher) WorkOptimalBaseline() (*Candidate, error) {
	base := New(Options{
		Model:              s.opt.Model,
		Expand:             s.opt.Expand,
		Annotate:           s.opt.Annotate,
		Metric:             WorkMetric{},
		Final:              ByWork,
		AvoidCrossProducts: s.opt.AvoidCrossProducts,
		Methods:            s.opt.Methods,
	})
	res, err := base.DPLeftDeep()
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, fmt.Errorf("search: no work-optimal baseline plan")
	}
	return res.Best, nil
}
