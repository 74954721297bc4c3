package search

import (
	"testing"

	"paropt/internal/plan"
	"paropt/internal/query"
)

func TestThroughputDegradationBound(t *testing.T) {
	b := ThroughputDegradation{K: 2}
	if !b.Admissible(19, 0, 10, 0) || b.Admissible(21, 0, 10, 0) {
		t.Error("throughput-degradation admissibility wrong")
	}
	if b.PruningLimit(10, 99) != 20 {
		t.Error("pruning limit must be k·Wo")
	}
	if b.Name() == "" {
		t.Error("bound needs a name")
	}
}

func TestCostBenefitBound(t *testing.T) {
	b := CostBenefit{K: 2}
	// Wo=10, To=100. Plan work 14 (extra 4), rt 97 (saved 3): 4 ≤ 2·3 ✓.
	if !b.Admissible(14, 97, 10, 100) {
		t.Error("good trade rejected")
	}
	// Extra 8 for saved 3: 8 > 6 ✗.
	if b.Admissible(18, 97, 10, 100) {
		t.Error("bad trade accepted")
	}
	// Extra work with no savings is inadmissible.
	if b.Admissible(11, 100, 10, 100) {
		t.Error("extra work without benefit accepted")
	}
	// No extra work: always admissible, even without savings.
	if !b.Admissible(10, 100, 10, 100) || !b.Admissible(9, 101, 10, 100) {
		t.Error("baseline-or-cheaper plans must be admissible")
	}
	if b.PruningLimit(10, 100) != 210 {
		t.Errorf("pruning limit = %g, want Wo + K·To = 210", b.PruningLimit(10, 100))
	}
	if b.Name() == "" {
		t.Error("bound needs a name")
	}
}

func TestWorkLimitPrunesSearch(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Chain

	free := newSearcher(t, cfg, nil)
	unbounded, err := free.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	wo, err := New(freeOpts(t, cfg)).WorkOptimalBaseline()
	if err != nil {
		t.Fatal(err)
	}
	tight := newSearcher(t, cfg, func(o *Options) { o.WorkLimit = wo.Work() * 1.05 })
	bounded, err := tight.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Best == nil {
		t.Fatal("the work-optimal plan is within any k ≥ 1 limit, so a plan must exist")
	}
	if bounded.Best.Work() > wo.Work()*1.05+1e-9 {
		t.Errorf("bounded search returned work %g above limit %g", bounded.Best.Work(), wo.Work()*1.05)
	}
	if bounded.Stats.Pruned <= unbounded.Stats.Pruned {
		t.Logf("note: pruning counts %d vs %d (bound should prune at least as much)",
			bounded.Stats.Pruned, unbounded.Stats.Pruned)
	}
	if bounded.Best.RT() < unbounded.Best.RT()-1e-9 {
		t.Error("a bounded search cannot find a faster plan than the unbounded one")
	}
}

func freeOpts(t *testing.T, cfg query.GenConfig) Options {
	t.Helper()
	return newSearcher(t, cfg, nil).opt
}

// podp is the left-deep partial-order search OptimizeBounded runs.
func podp(o Options) (*Result, error) { return New(o).PODPLeftDeep() }

func TestOptimizeBoundedPipeline(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Star

	opt := freeOpts(t, cfg)
	// Unbounded: best RT overall.
	bestFree, baseline, _, err := OptimizeBounded(opt, nil, podp)
	if err != nil {
		t.Fatal(err)
	}
	if bestFree == nil || baseline == nil {
		t.Fatal("missing plans")
	}
	if bestFree.RT() > baseline.RT()+1e-9 {
		t.Errorf("RT optimizer (%g) must not lose to work baseline (%g)", bestFree.RT(), baseline.RT())
	}

	// k = 1: no extra work allowed; the result's work must equal Wo (within
	// the frontier's granularity it can only be ≤).
	bestK1, base1, _, err := OptimizeBounded(opt, ThroughputDegradation{K: 1}, podp)
	if err != nil {
		t.Fatal(err)
	}
	if bestK1.Work() > base1.Work()+1e-9 {
		t.Errorf("k=1 plan work %g exceeds baseline %g", bestK1.Work(), base1.Work())
	}

	// Larger k must not produce a slower plan than smaller k.
	best2, _, _, err := OptimizeBounded(opt, ThroughputDegradation{K: 2}, podp)
	if err != nil {
		t.Fatal(err)
	}
	best4, _, _, err := OptimizeBounded(opt, ThroughputDegradation{K: 4}, podp)
	if err != nil {
		t.Fatal(err)
	}
	if best4.RT() > best2.RT()+1e-9 {
		t.Errorf("k=4 RT %g worse than k=2 RT %g", best4.RT(), best2.RT())
	}
	if best2.RT() > bestK1.RT()+1e-9 {
		t.Errorf("k=2 RT %g worse than k=1 RT %g", best2.RT(), bestK1.RT())
	}
}

func TestOptimizeBoundedCostBenefit(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Chain
	opt := freeOpts(t, cfg)
	best, baseline, _, err := OptimizeBounded(opt, CostBenefit{K: 1}, podp)
	if err != nil {
		t.Fatal(err)
	}
	extra := best.Work() - baseline.Work()
	saved := baseline.RT() - best.RT()
	if extra > 0 && extra > saved+1e-9 {
		t.Errorf("cost-benefit violated: extra work %g > saved time %g", extra, saved)
	}
}

func TestOptimizeBoundedBushy(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Star
	opt := freeOpts(t, cfg)
	best, _, stats, err := OptimizeBounded(opt, ThroughputDegradation{K: 3}, func(o Options) (*Result, error) { return New(o).PODPBushy() })
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || stats.PlansConsidered == 0 {
		t.Fatal("bushy bounded search returned nothing")
	}
}

// joinMethods collects the join methods of a plan tree.
func joinMethods(n *plan.Node, seen map[plan.JoinMethod]bool) map[plan.JoinMethod]bool {
	if !n.IsLeaf() {
		seen[n.Method] = true
		joinMethods(n.Left, seen)
		joinMethods(n.Right, seen)
	}
	return seen
}

// TestWorkOptimalBaselineHonorsMethods: the §2 baseline (Wo, To) every k·Wo
// bound is relative to comes from the plan space the search may use, so
// restricting Options.Methods restricts the baseline too.
func TestWorkOptimalBaselineHonorsMethods(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations, cfg.Shape, cfg.IndexProb = 4, query.Clique, 1
	opt := freeOpts(t, cfg)
	free, err := New(opt).WorkOptimalBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if used := joinMethods(free.Node, map[plan.JoinMethod]bool{}); len(used) == 1 && used[plan.HashJoin] {
		t.Fatalf("unrestricted baseline %s uses only hash joins: the query cannot tell a restricted baseline apart", free.Node)
	}
	opt.Methods = []plan.JoinMethod{plan.HashJoin}
	hash, err := New(opt).WorkOptimalBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for m := range joinMethods(hash.Node, map[plan.JoinMethod]bool{}) {
		if m != plan.HashJoin {
			t.Errorf("baseline under Methods = {hash-join} is %s, which joins by %s", hash.Node, m)
		}
	}
}
