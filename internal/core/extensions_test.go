package core_test

import (
	"testing"

	"paropt/internal/core"
	"paropt/internal/repro"
	"paropt/internal/workload"
)

func TestTwoPhaseAlgorithm(t *testing.T) {
	cat, q := workload.Portfolio(4)
	two, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pTwo, err := repro.Optimize(two, repro.Run{Algorithm: repro.TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	one, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pOne, err := repro.Optimize(one, repro.Run{Algorithm: repro.PartialOrderDP})
	if err != nil {
		t.Fatal(err)
	}
	// One-phase searches a superset of outcomes: it must not lose on RT.
	if pOne.RT() > pTwo.RT()+1e-9 {
		t.Errorf("one-phase rt %.2f lost to two-phase rt %.2f", pOne.RT(), pTwo.RT())
	}
	// Two-phase's tree is the work-optimal one.
	work, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pWork, err := repro.Optimize(work, repro.Run{Algorithm: repro.WorkDP})
	if err != nil {
		t.Fatal(err)
	}
	if pTwo.Tree.String() != pWork.Tree.String() {
		t.Errorf("two-phase tree %s differs from work-optimal %s", pTwo.Tree, pWork.Tree)
	}
}

func TestRandomizedAlgorithms(t *testing.T) {
	cat, q := workload.Portfolio(4)
	for _, alg := range []repro.Algorithm{repro.IterativeImprovement, repro.SimulatedAnnealing} {
		o, err := core.NewOptimizer(cat, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := repro.Optimize(o, repro.Run{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if p.RT() <= 0 {
			t.Errorf("%v: rt = %g", alg, p.RT())
		}
		if got := len(p.Tree.Leaves()); got != 5 {
			t.Errorf("%v: plan covers %d relations", alg, got)
		}
	}
}

func TestMemoryBoundChangesPlans(t *testing.T) {
	cat, q := workload.Portfolio(4)
	free, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pFree, err := repro.Optimize(free, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	freePeak := free.Mod.MemoryEstimate(pFree.Op).PeakPages

	// Constrain memory to half the unconstrained plan's peak.
	limit := freePeak / 2
	if limit < 1 {
		t.Skip("unconstrained plan already runs in minimal memory")
	}
	tight, err := core.NewOptimizer(cat, q, core.Config{MemoryPages: limit})
	if err != nil {
		t.Fatal(err)
	}
	pTight, err := repro.Optimize(tight, repro.Run{})
	if err != nil {
		// Acceptable: everything pruned is reported as an error.
		t.Logf("no plan fits in %d pages: %v", limit, err)
		return
	}
	peak := tight.Mod.MemoryEstimate(pTight.Op).PeakPages
	if peak > limit {
		t.Errorf("plan peak %d exceeds the %d-page limit", peak, limit)
	}
	if pTight.RT() < pFree.RT()-1e-9 {
		t.Errorf("memory-constrained plan cannot be faster: %g vs %g", pTight.RT(), pFree.RT())
	}
}

func TestExplainNewAlgorithms(t *testing.T) {
	cat, q := workload.PortfolioSmall(2)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{Algorithm: repro.SimulatedAnnealing})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Explain(p); len(got) == 0 {
		t.Error("empty explain")
	}
	if p.Algorithm != repro.SimulatedAnnealing.String() {
		t.Error("plan provenance lost")
	}
}
