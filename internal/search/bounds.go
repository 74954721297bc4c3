package search

import (
	"fmt"
	"time"
)

// The §2 optimization metric: minimize response time subject to a bound on
// extra work. Two bounding policies are provided. Both need the work-optimal
// baseline (Wo, To), obtained from a traditional work optimizer (Figure 1).

// Bound is a §2 admissibility policy for plans relative to the work-optimal
// baseline. Admissible must be monotone in work and rt: a plan with no more
// work and no more response time than an admissible one is admissible.
// PruningLimit relies on it for work, and a cached cover keeps only members
// no such plan beats (core.CoverSet).
type Bound interface {
	// Name labels the policy.
	Name() string
	// Admissible reports whether the plan's (work, rt) is within the bound
	// given the baseline (wo, to). Inadmissible plans cost "infinite".
	Admissible(work, rt, wo, to float64) bool
	// PruningLimit returns an upper bound on work usable for in-search
	// pruning (0 if none): any partial plan already above the limit can
	// never become admissible, because work only grows under extension.
	PruningLimit(wo, to float64) float64
}

// ThroughputDegradation is the §2 "limit on throughput degradation": a plan
// is admissible iff Wp ≤ k·Wo. k ≥ 1; k = 1 allows no extra work at all.
type ThroughputDegradation struct {
	K float64
}

// Name implements Bound.
func (b ThroughputDegradation) Name() string { return fmt.Sprintf("throughput-degradation(k=%g)", b.K) }

// Admissible implements Bound.
func (b ThroughputDegradation) Admissible(work, _, wo, _ float64) bool {
	return work <= b.K*wo
}

// PruningLimit implements Bound: the limit is directly usable in-search.
func (b ThroughputDegradation) PruningLimit(wo, _ float64) float64 { return b.K * wo }

// CostBenefit is the §2 "cost-benefit ratio" bound: each unit of response
// time bought may cost at most K units of extra work, i.e. a plan is
// admissible iff Wp − Wo ≤ K·(To − Tp). (The paper prints the fraction the
// other way up, (To−Tp)/(Wp−Wo) ≤ k, which would penalize large
// improvements; we implement the prose — "a limit on the ratio of the
// decrease in response time to additional work required" — in its
// economically sensible direction. See DESIGN.md.)
type CostBenefit struct {
	K float64
}

// Name implements Bound.
func (b CostBenefit) Name() string { return fmt.Sprintf("cost-benefit(k=%g)", b.K) }

// Admissible implements Bound.
func (b CostBenefit) Admissible(work, rt, wo, to float64) bool {
	extra := work - wo
	if extra <= 0 {
		return true // no extra work at all
	}
	saved := to - rt
	if saved <= 0 {
		return false // extra work with no response-time benefit
	}
	return extra <= b.K*saved
}

// PruningLimit implements Bound: a plan can save at most To (response time
// cannot drop below zero), so work beyond Wo + K·To is never admissible.
func (b CostBenefit) PruningLimit(wo, to float64) float64 { return wo + b.K*to }

// FilterFrontier picks the best plan under final among the frontier members
// admissible under bound, given the work-optimal baseline (wo, to). A nil
// bound admits everything; a nil final defaults to ByRT. It returns nil when
// no member is admissible (the §2 fallback is then the baseline itself,
// which is always admissible under both policies since Wp = Wo).
//
// This is the serving-layer entry point for cover-set reuse: a cached root
// cover set answers later requests with *different* bound knobs by
// re-filtering the stored Pareto frontier — no new search runs.
func FilterFrontier(frontier []*Candidate, bound Bound, wo, to float64, final Comparator) *Candidate {
	if final == nil {
		final = ByRT
	}
	var best *Candidate
	for _, c := range frontier {
		if bound != nil && !bound.Admissible(c.Work(), c.RT(), wo, to) {
			continue
		}
		if best == nil || final(c, best) {
			best = c
		}
	}
	return best
}

// FullCoverSet runs the work-optimal baseline (Figure 1) and a partial-order
// search, returning the baseline and the root cover set. With
// opt.WorkLimit unset no bound is folded into the search, so the frontier is
// the full Pareto set and can be re-filtered under any later bound via
// FilterFrontier — the amortization a plan cache relies on. The two searches
// are independent, so the baseline runs on a helper beside the left-deep
// partial-order one when an idle core allows (takeSlots).
func FullCoverSet(opt Options) (baseline *Candidate, frontier []*Candidate, stats Stats, err error) {
	searching.Add(1) // this goroutine, for both searches
	defer searching.Add(-1)
	s := New(opt)
	s.counted = true
	var (
		rec     *LayerRecord
		baseErr error
		done    chan struct{}
	)
	if takeSlots(1) == 1 {
		done = make(chan struct{})
		go func() {
			defer close(done)
			defer releaseSlots(1)
			baseline, rec, baseErr = workOptimal(opt, true)
		}()
	} else if baseline, rec, err = workOptimal(opt, true); err != nil {
		return nil, nil, Stats{}, err
	}
	res, err := s.PODPLeftDeep()
	if done != nil {
		<-done
		if baseErr != nil {
			return nil, nil, Stats{}, baseErr
		}
	}
	if err != nil {
		return nil, nil, Stats{}, err
	}
	res.Stats.Baseline = rec
	return baseline, res.Frontier, res.Stats, nil
}

// OptimizeBounded runs the full §2 pipeline with run as the response-time
// search:
//  1. a work optimizer (Figure 1) establishes the baseline (Wo, To);
//  2. run searches with the bound's pruning limit folded in ("work bounds
//     ... in fact cut down the search space", §6.4);
//  3. its frontier is filtered by the bound and the best admissible plan
//     under Final is returned, together with the baseline.
//
// A nil bound means unbounded.
func OptimizeBounded(opt Options, bound Bound, run func(Options) (*Result, error)) (best, baseline *Candidate, stats Stats, err error) {
	baseline, rec, err := workOptimal(opt, false)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	if bound != nil {
		opt.WorkLimit = bound.PruningLimit(baseline.Work(), baseline.RT())
	}
	res, err := run(opt)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	res.Stats.Baseline = rec
	best = FilterFrontier(res.Frontier, bound, baseline.Work(), baseline.RT(), opt.Final)
	if best == nil {
		// Everything admissible was pruned; the baseline itself is always
		// admissible under both policies (Wp = Wo).
		best = baseline
	}
	return best, baseline, res.Stats, nil
}

// WorkOptimalBaseline is the work-optimal plan the §2 bounds are relative
// to: Figure 1 on work over the session's model, ignoring its limits.
func (s *Searcher) WorkOptimalBaseline() (*Candidate, error) {
	best, _, err := workOptimal(s.opt, false)
	return best, err
}

// workOptimal is WorkOptimalBaseline over opt plus the pseudo-layer record of
// its search. counted says the calling goroutine, a helper, holds a search
// slot already.
func workOptimal(opt Options, counted bool) (*Candidate, *LayerRecord, error) {
	base := New(Options{
		Model:              opt.Model,
		Expand:             opt.Expand,
		Annotate:           opt.Annotate,
		Metric:             WorkMetric{},
		Final:              ByWork,
		AvoidCrossProducts: opt.AvoidCrossProducts,
		Methods:            opt.Methods,
	})
	base.counted = counted
	start := time.Now()
	res, err := base.DPLeftDeep()
	if err != nil {
		return nil, nil, err
	}
	if res.Best == nil {
		return nil, nil, fmt.Errorf("search: no work-optimal baseline plan")
	}
	st := res.Stats
	rec := &LayerRecord{
		Card: len(base.q.Relations), Subsets: 1, Kept: 1, MaxCover: 1,
		Considered: st.PlansConsidered, Physical: st.PhysicalPlans,
		PrunedDominance: st.PrunedDominance, PrunedWork: st.PrunedWork,
		PrunedMemory: st.PrunedMemory, PrunedBeam: st.PrunedBeam,
		Start: start, WallNanos: time.Since(start).Nanoseconds(),
	}
	for _, l := range st.Layers {
		rec.Workers = max(rec.Workers, l.Workers)
	}
	return res.Best, rec, nil
}
