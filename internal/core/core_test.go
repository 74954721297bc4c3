package core_test

import (
	"strings"
	"testing"

	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/machine"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/sim"
	"paropt/internal/storage"
	"paropt/internal/workload"
)

func portfolioOptimizer(t testing.TB, cfg core.Config) *core.Optimizer {
	t.Helper()
	cat, q := workload.Portfolio(4)
	o, err := core.NewOptimizer(cat, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOptimizeDefault(t *testing.T) {
	o := portfolioOptimizer(t, core.Config{})
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tree == nil || p.Op == nil {
		t.Fatal("plan incomplete")
	}
	if p.RT() <= 0 || p.Work() < p.RT() {
		t.Errorf("costs implausible: rt=%g work=%g", p.RT(), p.Work())
	}
	if len(p.Tree.Leaves()) != 5 {
		t.Errorf("plan covers %d relations, want 5", len(p.Tree.Leaves()))
	}
	if p.Stats.PlansConsidered == 0 {
		t.Error("stats not collected")
	}
}

func TestRTOptimizerBeatsWorkOptimizerOnRT(t *testing.T) {
	rt, err := repro.Optimize(portfolioOptimizer(t, core.Config{}), repro.Run{Algorithm: repro.PartialOrderDP})
	if err != nil {
		t.Fatal(err)
	}
	work, err := repro.Optimize(portfolioOptimizer(t, core.Config{}), repro.Run{Algorithm: repro.WorkDP})
	if err != nil {
		t.Fatal(err)
	}
	if rt.RT() > work.RT()+1e-9 {
		t.Errorf("RT optimizer rt=%g must not lose to work optimizer rt=%g", rt.RT(), work.RT())
	}
	if work.Work() > rt.Work()+1e-9 {
		t.Errorf("work optimizer work=%g must not lose to RT optimizer work=%g", work.Work(), rt.Work())
	}
}

func TestBoundedOptimize(t *testing.T) {
	o := portfolioOptimizer(t, core.Config{})
	p, err := repro.Optimize(o, repro.Run{Algorithm: repro.PartialOrderDP, Bound: search.ThroughputDegradation{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Baseline == nil {
		t.Fatal("bounded optimization must carry the baseline")
	}
	if p.Work() > 2*p.Baseline.Work()+1e-9 {
		t.Errorf("work %g exceeds 2×Wo = %g", p.Work(), 2*p.Baseline.Work())
	}
	if p.RT() > p.Baseline.RT()+1e-9 {
		t.Errorf("bounded plan rt %g worse than baseline %g", p.RT(), p.Baseline.RT())
	}
}

func TestAllAlgorithmsProducePlans(t *testing.T) {
	cat, q := workload.PortfolioSmall(2)
	// Brute force needs a small n; the portfolio has 5 relations (120
	// orders), fine for left-deep; bushy uses the same 5 (1680 shapes).
	for _, alg := range []repro.Algorithm{
		repro.PartialOrderDP, repro.PartialOrderDPBushy, repro.WorkDP, repro.NaiveRTDP,
		repro.BruteForceLeftDeep, repro.BruteForceBushy,
	} {
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
		if p.Algorithm == "" {
			t.Errorf("%v: empty name", alg)
		}
	}
}

func TestSimulatePlan(t *testing.T) {
	o := portfolioOptimizer(t, core.Config{})
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(p.Op, o.Mod)
	if err != nil {
		t.Fatal(err)
	}
	if res.RT <= 0 || res.Work <= 0 {
		t.Errorf("simulation empty: %+v", res)
	}
	// Model and simulator must agree on total work (same demand source).
	if diff := res.Work - p.Work(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("simulated work %g != modeled work %g", res.Work, p.Work())
	}
}

func TestExecutePlan(t *testing.T) {
	cat, q := workload.PortfolioSmall(2)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 11)
	serial, err := o.Execute(p, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := o.Execute(p, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != par.Fingerprint() {
		t.Error("parallel execution changed the result")
	}
	e := &engine.Executor{DB: db, Q: q, Parallel: 1}
	ref, err := engine.ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != ref.Fingerprint() {
		t.Error("optimized plan result differs from reference")
	}
}

func TestExplain(t *testing.T) {
	o := portfolioOptimizer(t, core.Config{})
	p, err := repro.Optimize(o, repro.Run{Algorithm: repro.PartialOrderDP, Bound: search.ThroughputDegradation{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	got := o.Explain(p)
	for _, want := range []string{
		"query:", "machine(", "p.o. DP", "join tree:", "operator tree:",
		"annotations:", "response time:", "work-optimal baseline:", "plans considered",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

func TestNewOptimizerErrors(t *testing.T) {
	cat, q := workload.Portfolio(2)
	if _, err := core.NewOptimizer(nil, q, core.Config{}); err == nil {
		t.Error("nil catalog should error")
	}
	if _, err := core.NewOptimizer(cat, nil, core.Config{}); err == nil {
		t.Error("nil query should error")
	}
	bad := *q
	bad.Relations = append([]string{"ghost"}, q.Relations...)
	if _, err := core.NewOptimizer(cat, &bad, core.Config{}); err == nil {
		t.Error("invalid query should error")
	}
	o, _ := core.NewOptimizer(cat, q, core.Config{})
	if _, err := repro.Optimize(o, repro.Run{Algorithm: repro.Algorithm(99)}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestConfigOverrides(t *testing.T) {
	cat, q := workload.Portfolio(2)
	params := cost.DefaultParams()
	params.PipelineK = 0
	o, err := core.NewOptimizer(cat, q, core.Config{
		Machine: machine.Config{CPUs: 2, Disks: 2},
		Params:  &params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.M.NumResources() != 4 {
		t.Errorf("machine override ignored: %v", o.M)
	}
	if o.Mod.P.PipelineK != 0 {
		t.Error("params override ignored")
	}
	p, err := repro.Optimize(o, repro.Run{Metric: search.WorkMetric{}})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("no plan")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if repro.Algorithm(99).String() != "algorithm(99)" {
		t.Error("unknown algorithm string wrong")
	}
	names := map[repro.Algorithm]string{
		repro.PartialOrderDP:      "p.o. DP for left-deep",
		repro.PartialOrderDPBushy: "p.o. DP for bushy",
		repro.WorkDP:              "DP for left-deep (work)",
		repro.BruteForceBushy:     "brute force for bushy",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}
