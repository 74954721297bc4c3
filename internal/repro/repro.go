// Package repro is the paper's reproduction apparatus: every row of Table 1
// behind one Optimize, the searches the partial-order DP is compared against
// (brute force, two-phase, the §7 randomized searches), the Theorem 3
// experiment and the misestimation study. The served optimizer, Figure 2
// alone, is internal/core; the daemon and the worker never link this package.
package repro

import (
	"fmt"
	"strings"

	"paropt/internal/core"
	"paropt/internal/search"
)

// Algorithm selects the search strategy: a row of Table 1.
type Algorithm int

// The rows, each named as in Table 1 by String.
const (
	PartialOrderDP       Algorithm = iota // Figure 2, left-deep: the paper's recommendation, and what the daemon serves
	PartialOrderDPBushy                   // Figure 2 over bushy trees ([GHK92])
	WorkDP                                // Figure 1 on total work: the traditional optimizer
	NaiveRTDP                             // Figure 1 with response time as a total order, unsound per Example 3
	BruteForceLeftDeep                    // all n! join orders
	BruteForceBushy                       // all bushy shapes
	TwoPhase                              // XPRS-style: the work-optimal tree, then parallelized ([HS91], §1)
	IterativeImprovement                  // greedy descent from random bushy starts (§7's outlook)
	SimulatedAnnealing                    // bushy search with an annealing schedule (§7's outlook)
)

// algorithms is the one table behind Algorithm, indexed by its value: the
// -alg spelling, the Table 1 name, the search it runs, and what it prunes
// and ranks by (a nil metric keeps the session's resource-vector(+order)
// partial order).
var algorithms = [...]struct {
	flag, name string
	run        func(search.Options) (*search.Result, error)
	metric     search.Metric
	final      search.Comparator
}{
	PartialOrderDP:       {"podp", "p.o. DP for left-deep", dp((*search.Searcher).PODPLeftDeep), nil, search.ByRT},
	PartialOrderDPBushy:  {"podp-bushy", "p.o. DP for bushy", dp((*search.Searcher).PODPBushy), nil, search.ByRT},
	WorkDP:               {"work", "DP for left-deep (work)", dp((*search.Searcher).DPLeftDeep), search.WorkMetric{}, search.ByWork},
	NaiveRTDP:            {"naive-rt", "DP for left-deep (naive RT)", dp((*search.Searcher).DPLeftDeep), search.RTMetric{}, search.ByRT},
	BruteForceLeftDeep:   {"brute", "brute force for left-deep", oracle((*Searcher).BruteForceLeftDeep), nil, search.ByRT},
	BruteForceBushy:      {"brute-bushy", "brute force for bushy", oracle((*Searcher).BruteForceBushy), nil, search.ByRT},
	TwoPhase:             {"two-phase", "two-phase (work tree, then parallelize)", nil, nil, search.ByRT}, // run by Optimize, which keeps phase two's annotation
	IterativeImprovement: {"ii", "iterative improvement (bushy)", oracle(randomized(false)), nil, search.ByRT},
	SimulatedAnnealing:   {"anneal", "simulated annealing (bushy)", oracle(randomized(true)), nil, search.ByRT},
}

func dp(run func(*search.Searcher) (*search.Result, error)) func(search.Options) (*search.Result, error) {
	return func(opt search.Options) (*search.Result, error) { return run(search.New(opt)) }
}

func oracle(run func(*Searcher) (*search.Result, error)) func(search.Options) (*search.Result, error) {
	return func(opt search.Options) (*search.Result, error) { return run(New(Options{Options: opt})) }
}

func randomized(anneal bool) func(*Searcher) (*search.Result, error) {
	ro := DefaultRandomizedOptions()
	ro.Anneal = anneal
	return func(s *Searcher) (*search.Result, error) { return s.Randomized(ro) }
}

func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithms) }

// String names the algorithm as in Table 1.
func (a Algorithm) String() string {
	if !a.known() {
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// ParseAlgorithm maps a command-line algorithm name to its Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, row := range algorithms {
		if row.flag == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", name, AlgorithmFlags())
}

// AlgorithmFlags lists every command-line algorithm name, for -alg help text.
func AlgorithmFlags() string {
	names := make([]string, len(algorithms))
	for a, row := range algorithms {
		names[a] = row.flag
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// Run is what one offline optimization searches with, beyond its session.
type Run struct {
	// Algorithm defaults to PartialOrderDP.
	Algorithm Algorithm
	// Bound optionally constrains extra work (§2). Nil means unbounded.
	Bound search.Bound
	// Metric overrides the pruning metric; nil keeps the algorithm's own.
	Metric search.Metric
}

// Optimize runs r's algorithm over o's session and returns the winning plan.
// A bound runs the §2 pipeline (search.OptimizeBounded) around whichever
// algorithm it is; a bounded plan carries the baseline and no frontier. The
// winner is materialized under the annotation options it was priced under —
// for two-phase the parallelization phase two chose — and a plan over the
// session's memory limit is refused.
func Optimize(o *core.Optimizer, r Run) (*core.Plan, error) {
	if !r.Algorithm.known() {
		return nil, fmt.Errorf("repro: unknown algorithm %v", r.Algorithm)
	}
	row := algorithms[r.Algorithm]
	opt := o.SearchOptions()
	opt.Final = row.final
	if r.Metric != nil {
		opt.Metric = r.Metric
	} else if row.metric != nil {
		opt.Metric = row.metric
	}
	ann, run := opt.Annotate, row.run
	if r.Algorithm == TwoPhase { // phase two chooses the annotation its plan is priced under
		run = func(opt search.Options) (res *search.Result, err error) {
			res, ann, err = New(Options{Options: opt}).twoPhase()
			return res, err
		}
	}
	cs := &core.CoverSet{}
	var best *search.Candidate
	if r.Bound != nil {
		var err error
		if best, cs.Baseline, cs.Stats, err = search.OptimizeBounded(opt, r.Bound, run); err != nil {
			return nil, err
		}
	} else {
		res, err := run(opt)
		if err != nil {
			return nil, err
		}
		if res.Best == nil {
			return nil, fmt.Errorf("repro: no plan found (over-tight limit?)")
		}
		best, cs.Frontier, cs.Size, cs.Stats = res.Best, res.Frontier, len(res.Frontier), res.Stats
	}
	p, err := o.Materialize(cs, best)
	if err != nil {
		return nil, err
	}
	if best != cs.Baseline && ann != opt.Annotate {
		if p.Desc, p.Op, err = o.Mod.PlanCost(best.Node, opt.Expand, ann); err != nil {
			return nil, err
		}
	}
	if peak := o.Mod.MemoryEstimate(p.Op).PeakPages; opt.MemoryLimit > 0 && peak > opt.MemoryLimit {
		return nil, fmt.Errorf("repro: the %v plan peaks at %d pages, over the %d-page limit", r.Algorithm, peak, opt.MemoryLimit)
	}
	p.Algorithm = r.Algorithm.String()
	return p, nil
}
