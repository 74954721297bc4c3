package search

import (
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// orderingFixture builds the classic System R situation lifted to the
// parallel setting (§6.3: "tuple ordering may be incorporated as an
// additional dimension"). Three relations chain-join on one attribute
// class; only S is stored sorted on it. For every 2-relation subquery the
// hash join strictly dominates the sort-merge (which must sort the unsorted
// side: more CPU and more spill I/O on the same resources) — but only the
// sort-merge's output carries the order that saves the final join from
// sorting (or hash-probing) a 2-million-row intermediate. The ordering
// dimension is what keeps that dominated-on-cost subplan alive.
func orderingFixture(t *testing.T, metric Metric) *Searcher {
	t.Helper()
	cat := catalog.New()
	add := func(name string, disk int, sorted bool) {
		rel := catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "a", NDV: 20_000, Width: 8},
			},
			Card: 200_000, Pages: 2_000, Disk: disk,
		}
		if sorted {
			rel.SortedBy = "a"
		}
		cat.MustAddRelation(rel)
	}
	add("R", 0, false)
	add("S", 1, true)
	add("T", 2, false)
	q := &query.Query{
		Name:      "ordered-chain",
		Relations: []string{"R", "S", "T"},
		Joins: []query.JoinPredicate{
			{Left: query.ColumnRef{Relation: "R", Column: "a"}, Right: query.ColumnRef{Relation: "S", Column: "a"}},
			{Left: query.ColumnRef{Relation: "S", Column: "a"}, Right: query.ColumnRef{Relation: "T", Column: "a"}},
		},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 1, Disks: 3})
	params := cost.DefaultParams()
	params.PipelineK = 0
	params.CPUTuple = 0.001
	params.CPUCompare = 0.002
	params.HashBuild = 0.02
	params.HashProbe = 0.01
	params.SortMemPages = 100 // sorts spill
	return New(Options{
		Model:              cost.NewModel(cat, m, est, params),
		Expand:             optree.DefaultExpandOptions(),
		Annotate:           optree.AnnotateOptions{MaxDegree: 1},
		Metric:             metric,
		AvoidCrossProducts: true,
	})
}

func orderedMetric() Metric { return OrderedMetric{Base: ResourceVectorMetric{L: 4}} }
func plainVector() Metric   { return ResourceVectorMetric{L: 4} }

// TestHashDominatesSortMergeOnCost pins the fixture's premise: for the
// {S,R} subquery the hash join dominates the sorting merge join in every
// resource dimension, so a cost-only cover must discard the ordered plan.
func TestHashDominatesSortMergeOnCost(t *testing.T) {
	s := orderingFixture(t, plainVector())
	sLeaf, err := s.est.Leaf("S", plan.SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	rLeaf, _ := s.est.Leaf("R", plan.SeqScan, nil)
	hj, _ := s.est.Join(sLeaf, rLeaf, plan.HashJoin)
	sm, _ := s.est.Join(sLeaf, rLeaf, plan.SortMerge)
	price := func(n *plan.Node) *Candidate {
		d, _, err := s.opt.Model.PlanCost(n, s.opt.Expand, s.opt.Annotate)
		if err != nil {
			t.Fatal(err)
		}
		return &Candidate{Node: n, Desc: d}
	}
	chj, csm := price(hj), price(sm)
	if !plainVector().Dominates(chj, csm) {
		t.Fatalf("fixture broken: HJ %v should dominate SM %v", chj.Desc.Last, csm.Desc.Last)
	}
	if csm.Order().Empty() || !chj.Order().Empty() {
		t.Fatal("fixture broken: SM ordered, HJ unordered expected")
	}
	// Under the ordered metric the two are incomparable.
	if orderedMetric().Dominates(chj, csm) {
		t.Error("ordering dimension must block the domination")
	}
}

// TestOrderingDimensionImprovesFinalPlan: with the ordering dimension, the
// optimizer reaches the sort-free merge pipeline and a strictly better
// response time — the §6.3 payoff measured.
func TestOrderingDimensionImprovesFinalPlan(t *testing.T) {
	withOrder := orderingFixture(t, orderedMetric())
	rOrder, err := withOrder.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	plain := orderingFixture(t, plainVector())
	rPlain, err := plain.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if rOrder.Best.RT() >= rPlain.Best.RT() {
		t.Fatalf("ordering dimension should win: %.0f (with) vs %.0f (without)\nwith:    %s\nwithout: %s",
			rOrder.Best.RT(), rPlain.Best.RT(), rOrder.Best.Node, rPlain.Best.Node)
	}
	// The winner uses sort-merge and — crucially — never sorts the 2M-row
	// intermediate: only base relations (200k rows) get sorted.
	if !strings.Contains(rOrder.Best.Node.String(), "SM(") {
		t.Errorf("expected a sort-merge in the winner, got %s", rOrder.Best.Node)
	}
	op, err := optree.Expand(rOrder.Best.Node, withOrder.est, withOrder.opt.Expand)
	if err != nil {
		t.Fatal(err)
	}
	op.Walk(func(o *optree.Op) {
		if o.Kind == optree.Sort && o.InCard > 250_000 {
			t.Errorf("winner sorts a %d-row intermediate — the order was not exploited: %s",
				o.InCard, op)
		}
	})
}
