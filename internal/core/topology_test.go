package core_test

import (
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/workload"
)

// Topologies compared by the tests below: the same aggregate hardware as one
// shared-everything node and as four shared-nothing nodes joined by a slow
// interconnect (per-transfer latency plus a link an order of magnitude
// slower than a disk). On the second machine every repartitioned edge is
// charged to real interconnect links, so plans that keep data local can beat
// the shared-memory winner.
var (
	oneNode  = machine.Config{CPUs: 4, Disks: 4, Networks: 1}
	fourNode = machine.Config{CPUs: 1, Disks: 1, Nodes: 4, NetLatency: 4, NetSpeed: 0.1}
)

// TestTopologyChangesPlan: the network dimension must be load-bearing — on
// at least one EXPERIMENTS workload query the optimizer picks a different
// join tree for the 4-node shared-nothing machine than for the equivalent
// shared-memory node.
func TestTopologyChangesPlan(t *testing.T) {
	pCat, pQ := workload.Portfolio(4)
	tCat, tQs := workload.TPCHLike(4, 1)
	cases := []struct {
		cat *catalog.Catalog
		q   *query.Query
	}{{pCat, pQ}}
	for _, q := range tQs {
		cases = append(cases, struct {
			cat *catalog.Catalog
			q   *query.Query
		}{tCat, q})
	}

	changed := 0
	for _, tc := range cases {
		p1 := optimizeOn(t, tc.cat, tc.q, oneNode)
		p4 := optimizeOn(t, tc.cat, tc.q, fourNode)
		if p1.Tree.String() != p4.Tree.String() {
			changed++
			t.Logf("%s: plan changed with topology\n  1-node: %s (rt=%.1f)\n  4-node: %s (rt=%.1f)",
				tc.q.Name, p1.Tree, p1.RT(), p4.Tree, p4.RT())
		}
	}
	if changed == 0 {
		t.Error("no workload query changed plans between 1-node and 4-node topology; network cost is decorative")
	}
}

// TestTopologyPlanChangeIsCostMotivated re-prices the shared-memory winner
// under the 4-node model for a query whose plan changes: the multi-node
// choice must be strictly cheaper there, i.e. the switch is driven by
// interconnect cost, not by enumeration noise.
func TestTopologyPlanChangeIsCostMotivated(t *testing.T) {
	cat, qs := workload.TPCHLike(4, 1)
	var q *query.Query
	for _, cand := range qs {
		if cand.Name == "q5-local-supplier-volume" {
			q = cand
		}
	}
	if q == nil {
		t.Fatal("q5-local-supplier-volume missing from the TPC-H-like workload")
	}
	p1 := optimizeOn(t, cat, q, oneNode)
	p4 := optimizeOn(t, cat, q, fourNode)
	if p1.Tree.String() == p4.Tree.String() {
		t.Fatalf("expected a topology-driven plan change on %s, both chose %s", q.Name, p1.Tree)
	}

	// Price the shared-memory tree on the shared-nothing machine.
	o4, err := core.NewOptimizer(cat, q, core.Config{Machine: fourNode})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := o4.Mod.PlanCost(p1.Tree, optree.DefaultExpandOptions(), optree.DefaultAnnotateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.RT() <= p4.RT() {
		t.Errorf("shared-memory tree costs %.1f on the 4-node machine, not worse than the chosen %.1f", d.RT(), p4.RT())
	}
	t.Logf("%s on 4 nodes: chosen rt=%.1f, shared-memory tree rt=%.1f", q.Name, p4.RT(), d.RT())
}

// placementSubquery is the portfolio chain restricted to three relations:
// trades⋈stocks is co-located under the placement below, stocks⋈sectors is
// not, so join order decides how much interconnect a plan pays.
func placementSubquery(t *testing.T) (*catalog.Catalog, *query.Query) {
	t.Helper()
	cat, _ := workload.Portfolio(4)
	col := func(rel, c string) query.ColumnRef { return query.ColumnRef{Relation: rel, Column: c} }
	q := &query.Query{
		Name:      "portfolio-3way",
		Relations: []string{"trades", "stocks", "sectors"},
		Joins: []query.JoinPredicate{
			{Left: col("trades", "stock_id"), Right: col("stocks", "stock_id")},
			{Left: col("stocks", "sector_id"), Right: col("sectors", "sector_id")},
		},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	return cat, q
}

var portfolioPlacement = map[string]cost.PlacedRelation{
	"trades":  {Column: "stock_id", Nodes: []int{0, 1, 2, 3}},
	"stocks":  {Column: "stock_id", Nodes: []int{0, 1, 2, 3}},
	"sectors": {Column: "sector_id", Nodes: []int{0, 1, 2, 3}},
}

// TestPlacementDiscountsCoLocatedJoin prices one fixed tree —
// trades⋈stocks, whose join key is the placement column of both sides — on
// the 4-node machine under three data layouts. Co-located placement must
// strictly cut total work (the repartitioned bytes vanish from the
// interconnect) and dominate the unplaced descriptor; a misplaced layout
// (partitioned on columns nothing joins on) must keep paying full price.
func TestPlacementDiscountsCoLocatedJoin(t *testing.T) {
	cat, q := placementSubquery(t)
	price := func(placed map[string]cost.PlacedRelation) cost.ResDescriptor {
		o, err := core.NewOptimizer(cat, q, core.Config{Machine: fourNode, Placed: placed})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := o.Est.Join(
			mustLeaf(t, o, "trades"), mustLeaf(t, o, "stocks"), plan.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := o.Mod.PlanCost(tree, optree.DefaultExpandOptions(), optree.DefaultAnnotateOptions())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	unplaced := price(nil)
	coloc := price(portfolioPlacement)
	misplaced := price(map[string]cost.PlacedRelation{
		"trades": {Column: "amount", Nodes: []int{0, 1, 2, 3}},
		"stocks": {Column: "listed", Nodes: []int{0, 1, 2, 3}},
	})
	t.Logf("trades⋈stocks on 4 nodes: unplaced work=%.1f rt=%.1f | co-located work=%.1f rt=%.1f | misplaced work=%.1f rt=%.1f",
		unplaced.Work(), unplaced.RT(), coloc.Work(), coloc.RT(), misplaced.Work(), misplaced.RT())

	if coloc.Work() >= unplaced.Work() {
		t.Errorf("co-located work %.1f not below unplaced %.1f; the interconnect charge did not drop",
			coloc.Work(), unplaced.Work())
	}
	if coloc.RT() > unplaced.RT() {
		t.Errorf("co-located rt %.1f worse than unplaced %.1f", coloc.RT(), unplaced.RT())
	}
	// A misplaced layout still pays the interconnect: only the producer-node
	// bookkeeping may shift its price a hair, never the co-location discount.
	if misplaced.Work() < unplaced.Work()*0.99 {
		t.Errorf("misplaced layout work %.1f got a discount (unplaced %.1f); placement column is not consulted",
			misplaced.Work(), unplaced.Work())
	}
	if misplaced.Work() <= coloc.Work() {
		t.Errorf("misplaced work %.1f not above co-located %.1f", misplaced.Work(), coloc.Work())
	}
}

// TestPlacementWidensCoverSet: under the placement above, a plan that joins
// co-located trades⋈stocks first and one that starts with the repartitioned
// stocks⋈sectors edge load different resource dimensions (local hand-off vs
// interconnect), so the partial order must keep more incomparable shapes
// than the unplaced search does.
func TestPlacementWidensCoverSet(t *testing.T) {
	cat, q := placementSubquery(t)
	base := optimizeOn(t, cat, q, fourNode)
	o, err := core.NewOptimizer(cat, q, core.Config{Machine: fourNode, Placed: portfolioPlacement})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s on 4 nodes: unplaced rt=%.1f cover=%d frontier=%d | placed rt=%.1f cover=%d frontier=%d",
		q.Name, base.RT(), base.Stats.MaxCoverSize, len(base.Frontier),
		pp.RT(), pp.Stats.MaxCoverSize, len(pp.Frontier))
	if pp.RT() > base.RT() {
		t.Errorf("placement made the chosen plan worse: rt %.1f vs %.1f", pp.RT(), base.RT())
	}
	if pp.Stats.MaxCoverSize <= base.Stats.MaxCoverSize {
		t.Errorf("placed cover set max %d not wider than unplaced %d; co-located and repartitioned shapes should be incomparable",
			pp.Stats.MaxCoverSize, base.Stats.MaxCoverSize)
	}
}

func mustLeaf(t *testing.T, o *core.Optimizer, rel string) *plan.Node {
	t.Helper()
	n, err := o.Est.Leaf(rel, plan.SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func optimizeOn(t *testing.T, cat *catalog.Catalog, q *query.Query, cfg machine.Config) *core.Plan {
	t.Helper()
	o, err := core.NewOptimizer(cat, q, core.Config{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
