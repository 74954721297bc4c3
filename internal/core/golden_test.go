package core_test

import (
	"testing"

	"paropt/internal/core"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/workload"
)

// Golden regression tests: pin the plans and costs the optimizer chooses on
// the reference workload under default parameters. Any cost-model or search
// change that shifts these must be a conscious decision (update the
// constants alongside the change).

func TestGoldenPortfolioPlan(t *testing.T) {
	cat, q := workload.Portfolio(4)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	const wantPlan = "HJ(SM(HJ(NL(indexScan(accounts_pk), indexScan(trades_stock)), scan(dates)), scan(stocks)), scan(sectors))"
	if got := p.Tree.String(); got != wantPlan {
		t.Errorf("plan changed:\n got %s\nwant %s", got, wantPlan)
	}
	if rt := p.RT(); rt < 540 || rt > 541 {
		t.Errorf("RT = %.2f, want ≈ 540.22", rt)
	}
	if w := p.Work(); w < 1675 || w > 1676 {
		t.Errorf("work = %.2f, want ≈ 1675.16", w)
	}
}

func TestGoldenWorkOptimalPlan(t *testing.T) {
	cat, q := workload.Portfolio(4)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{Algorithm: repro.WorkDP})
	if err != nil {
		t.Fatal(err)
	}
	if w := p.Work(); w < 1133 || w > 1134 {
		t.Errorf("work-optimal work = %.2f, want ≈ 1133.62", w)
	}
	if rt := p.RT(); rt < 598 || rt > 599 {
		t.Errorf("work-optimal RT = %.2f, want ≈ 598.72", rt)
	}
}

// TestSelectiveFilterFlipsJoinOrder: a point selection that shrinks one
// relation to a handful of rows must pull it to the outer position — the
// textbook behavior that validates selectivity propagation through search.
func TestSelectiveFilterFlipsJoinOrder(t *testing.T) {
	build := func(withFilter bool) *core.Plan {
		cat, q := workload.Portfolio(4)
		if !withFilter {
			q.Selections = nil
		}
		o, err := core.NewOptimizer(cat, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := repro.Optimize(o, repro.Run{Algorithm: repro.WorkDP})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	filtered := build(true)
	unfiltered := build(false)
	// The filtered query (accounts.manager = const shrinks accounts to
	// ~250 rows) must be cheaper than the unfiltered one.
	if filtered.Work() >= unfiltered.Work() {
		t.Errorf("selection should reduce work: %.1f vs %.1f",
			filtered.Work(), unfiltered.Work())
	}
	// And the selective dimension appears before the fact table drives the
	// whole plan: the filtered plan's first leaf should not be the raw
	// trades scan.
	first := filtered.Tree.Leaves()[0]
	if first.Relation == "trades" && first.Access == 0 {
		t.Errorf("filtered plan still leads with a full trades scan: %s", filtered.Tree)
	}
}

// TestGoldenStats pins the Table 1 counting invariants at the core level.
func TestGoldenStats(t *testing.T) {
	cat, q := query.Generate(query.GenConfig{
		Relations: 5, Shape: query.Clique,
		MinCard: 1_000, MaxCard: 1_000_000, Disks: 4, Seed: 1,
	})
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{Algorithm: repro.WorkDP, Metric: search.WorkMetric{}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.PlansConsidered != 80 { // 5·2^4
		t.Errorf("plans considered = %d, want 80", p.Stats.PlansConsidered)
	}
}

// TestMisestimationRegret: distorted statistics can only make plans worse,
// and the regret is bounded for moderate distortions on the reference
// workload.
func TestMisestimationRegret(t *testing.T) {
	cat, q := workload.Portfolio(4)
	for _, factor := range []float64{0.1, 0.5, 1, 2, 10} {
		chosen, optimum, err := repro.MisestimationRegret(cat, q, core.Config{}, factor)
		if err != nil {
			t.Fatalf("factor %g: %v", factor, err)
		}
		if chosen < optimum-1e-6 {
			t.Errorf("factor %g: misestimated plan (%.1f) beats the optimum (%.1f)?",
				factor, chosen, optimum)
		}
		if factor == 1 && chosen > optimum+1e-6 {
			t.Errorf("undistorted stats must reproduce the optimum: %.1f vs %.1f", chosen, optimum)
		}
	}
}

func TestDistortNDVs(t *testing.T) {
	cat, _ := workload.Portfolio(2)
	d := repro.DistortNDVs(cat, 0.01)
	rel := d.MustRelation("trades")
	if got := rel.MustColumn("stock_id").NDV; got != 200 {
		t.Errorf("distorted NDV = %d, want 200 (20000 × 0.01)", got)
	}
	if rel.Card != cat.MustRelation("trades").Card {
		t.Error("distortion must not change cardinalities")
	}
	if len(d.IndexesOn("trades")) != len(cat.IndexesOn("trades")) {
		t.Error("indexes lost in distortion")
	}
	// Clamp to [1, Card].
	tiny := repro.DistortNDVs(cat, 1e-9)
	if tiny.MustRelation("sectors").MustColumn("sector_id").NDV != 1 {
		t.Error("NDV floor not applied")
	}
	huge := repro.DistortNDVs(cat, 1e9)
	if got := huge.MustRelation("sectors").MustColumn("sector_id").NDV; got != 100 {
		t.Errorf("NDV cap = %d, want card 100", got)
	}
}
