package paropt

import (
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the whole public API surface the way the
// README's quick start does.
func TestQuickstartFlow(t *testing.T) {
	cat, q := PortfolioWorkload(4)
	opt, err := NewOptimizer(cat, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(opt, Run{Bound: ThroughputDegradation{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT() <= 0 || p.Baseline == nil {
		t.Fatalf("plan incomplete: rt=%g", p.RT())
	}
	if !strings.Contains(opt.Explain(p), "response time:") {
		t.Error("Explain output incomplete")
	}
	res, err := Simulate(p.Op, opt.Mod)
	if err != nil {
		t.Fatal(err)
	}
	if res.RT <= 0 {
		t.Error("simulation empty")
	}
}

func TestHandBuiltCatalog(t *testing.T) {
	cat := NewCatalog()
	cat.MustAddRelation(Relation{
		Name: "emp",
		Columns: []Column{
			{Name: "id", NDV: 10_000, Width: 8},
			{Name: "dept_id", NDV: 100, Width: 8},
		},
		Card: 10_000, Pages: 100, Disk: 0,
	})
	cat.MustAddRelation(Relation{
		Name: "dept",
		Columns: []Column{
			{Name: "id", NDV: 100, Width: 8},
			{Name: "budget", NDV: 50, Width: 8},
		},
		Card: 100, Pages: 1, Disk: 1,
	})
	cat.MustAddIndex(Index{Name: "dept_pk", Relation: "dept", Columns: []string{"id"}, Clustered: true, Disk: 1})
	q := &Query{
		Name:      "emp-dept",
		Relations: []string{"emp", "dept"},
		Joins: []JoinPredicate{{
			Left:  ColumnRef{Relation: "emp", Column: "dept_id"},
			Right: ColumnRef{Relation: "dept", Column: "id"},
		}},
	}
	opt, err := NewOptimizer(cat, q, Config{Machine: MachineConfig{CPUs: 2, Disks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(opt, Run{})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(cat, 1)
	res, err := opt.Execute(p, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("execution returned no rows")
	}
}

func TestGeneratedWorkloadAllAlgorithms(t *testing.T) {
	cfg := GenConfig{
		Relations: 4, Shape: Star, MinCard: 1000, MaxCard: 100_000,
		Disks: 4, IndexProb: 0.5, Seed: 2,
	}
	cat, q := Generate(cfg)
	for _, alg := range []Algorithm{PartialOrderDP, WorkDP, PartialOrderDPBushy} {
		opt, err := NewOptimizer(cat, q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Optimize(opt, Run{Algorithm: alg}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestSimulateViaFacade(t *testing.T) {
	cat, q := PortfolioWorkloadSmall(2)
	opt, err := NewOptimizer(cat, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(opt, Run{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p.Op, opt.Mod)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization() <= 0 {
		t.Error("utilization should be positive")
	}
}

func TestDefaultCostParams(t *testing.T) {
	p := DefaultCostParams()
	if p.IOPage != 1 || p.PipelineK <= 0 {
		t.Errorf("unexpected defaults: %+v", p)
	}
}

func TestTPCHWorkloadFacade(t *testing.T) {
	cat, queries := TPCHWorkload(4, 1)
	if len(queries) != 3 {
		t.Fatalf("queries = %d", len(queries))
	}
	opt, err := NewOptimizer(cat, queries[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(opt, Run{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT() <= 0 {
		t.Error("empty plan cost")
	}
}

func TestMisestimationFacade(t *testing.T) {
	cat, q := PortfolioWorkload(2)
	d := DistortNDVs(cat, 2)
	if d.MustRelation("trades").MustColumn("stock_id").NDV !=
		2*cat.MustRelation("trades").MustColumn("stock_id").NDV {
		t.Error("DistortNDVs facade broken")
	}
	chosen, optimum, err := MisestimationRegret(cat, q, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if chosen < optimum-1e-6 {
		t.Errorf("regret below 1: %g vs %g", chosen, optimum)
	}
}
