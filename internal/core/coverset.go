package core

import (
	"fmt"

	"paropt/internal/search"
)

// Cover-set reuse: the serving layer (internal/service) amortizes search
// cost across requests by caching the root cover set — the Pareto frontier
// of incomparable plans (§6.2) — together with the §2 work-optimal
// baseline. Any later request for the same query shape but a *different*
// work bound (throughput-degradation k, cost–benefit k, or no bound at
// all) is answered by re-filtering the cached frontier; the DP search never
// re-runs.

// CoverSet is a reusable search result: the work-optimal baseline, the part
// of the root cover set of an unbounded partial-order search that a request
// can reach, and the search counters that produced it. It is immutable once
// built and safe to share across goroutines.
type CoverSet struct {
	// Baseline is the Figure 1 work optimum (Wo, To) the §2 bounds are
	// relative to.
	Baseline *search.Candidate
	// Frontier holds the members of the root cover set (no bound folded in)
	// that some bound can choose or a why-record can list — see reachable —
	// in the search's order. Size is the whole root cover's size.
	Frontier []*search.Candidate
	Size     int
	// Stats are the counters of the partial-order search.
	Stats search.Stats
}

// CoverSet runs the work-optimal baseline plus an unbounded partial-order
// search over left-deep trees and returns both for caching.
func (o *Optimizer) CoverSet() (*CoverSet, error) {
	baseline, frontier, stats, err := search.FullCoverSet(o.opts)
	if err != nil {
		return nil, err
	}
	return &CoverSet{Baseline: baseline, Frontier: reachable(frontier, o.opts.Final), Size: len(frontier), Stats: stats}, nil
}

// reachable is what a cache entry keeps of a root cover. A root is never
// extended, so of its resource vectors only (work, rt) still matter, and both
// §2 bounds are monotone in them (search.Bound): whenever a member is
// admissible, so is every member that beats it — no more work, no more
// response time, preferred by final. A bound's choice is therefore beaten by
// nobody, and the ProvenanceTopK rejected alternatives listed next to it by
// at most ProvenanceTopK members (the choice and the ones listed before). So
// the members beaten by at most ProvenanceTopK others — the (K+1)-skyband
// under (work, rt, final) — answer Choose and PlanProvenance exactly as the
// whole cover does, for every bound; measured on the serving workload they
// are ≈ 13 of ≈ 160. A member is not compared with itself: final is strict,
// and the tie it would have to break (ByRT's plan strings) costs allocations.
func reachable(frontier []*search.Candidate, final search.Comparator) []*search.Candidate {
	work := make([]float64, len(frontier))
	for i, c := range frontier {
		work[i] = c.Work()
	}
	var out []*search.Candidate
	for i, c := range frontier {
		beaten := 0
		for j, b := range frontier {
			if j != i && work[j] <= work[i] && b.RT() <= c.RT() && final(b, c) {
				beaten++
			}
		}
		if beaten <= ProvenanceTopK {
			out = append(out, c)
		}
	}
	return out
}

// Choose answers one request's *choice* from a cover set: it re-filters the
// frontier under the bound (nil means unbounded, i.e. minimum response time)
// and falls back to the baseline when nothing is admissible. The result is a
// member of cs (a frontier element or cs.Baseline), so callers can memoize
// whatever they derive from it per member. It runs no search, allocates
// nothing, and is safe to call concurrently on a shared CoverSet.
func (o *Optimizer) Choose(cs *CoverSet, bound search.Bound) (*search.Candidate, error) {
	if cs == nil || cs.Baseline == nil {
		return nil, fmt.Errorf("core: empty cover set")
	}
	best := search.FilterFrontier(cs.Frontier, bound, cs.Baseline.Work(), cs.Baseline.RT(), o.opts.Final)
	if best == nil {
		best = cs.Baseline
	}
	return best, nil
}

// Materialize expands a member of cs chosen by Choose into a full Plan
// (operator tree, descriptor) with the materialized baseline, if cs has one,
// attached.
func (o *Optimizer) Materialize(cs *CoverSet, c *search.Candidate) (*Plan, error) {
	p, err := o.finish(c, cs.Frontier, cs.Stats)
	if err != nil {
		return nil, err
	}
	if cs.Baseline != nil {
		if p.Baseline, err = o.finish(cs.Baseline, nil, cs.Stats); err != nil {
			return nil, err
		}
	}
	p.FrontierSize = cs.Size
	return p, nil
}

// SelectBounded answers one request from a cover set: Choose under the
// bound, then Materialize the winner.
func (o *Optimizer) SelectBounded(cs *CoverSet, bound search.Bound) (*Plan, error) {
	best, err := o.Choose(cs, bound)
	if err != nil {
		return nil, err
	}
	return o.Materialize(cs, best)
}
