package search

import (
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// newSearcher builds a searcher over a generated workload.
func newSearcher(t testing.TB, cfg query.GenConfig, mut func(*Options)) *Searcher {
	t.Helper()
	opt := genOptions(t, cfg)
	if mut != nil {
		mut(&opt)
	}
	return New(opt)
}

// genOptions is the options of a search over a generated workload on a
// 4-CPU, 4-disk machine.
func genOptions(t testing.TB, cfg query.GenConfig) Options {
	t.Helper()
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	return Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}
}

func cliqueCfg(n int) query.GenConfig {
	cfg := query.DefaultGenConfig()
	cfg.Relations = n
	cfg.Shape = query.Clique
	cfg.IndexProb = 0 // one access path per relation keeps counting exact
	cfg.SortedProb = 0
	return cfg
}

// exactOpts configures the searcher so the calculus is exactly monotone
// (δ off, no cloning), making partial-order DP provably optimal.
func exactOpts(o *Options) {
	o.Model.P.PipelineK = 0
	o.Annotate.MaxDegree = 1
}

func TestDPLeftDeepTable1Counts(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		s := newSearcher(t, cliqueCfg(n), nil)
		res, err := s.DPLeftDeep()
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatalf("n=%d: no plan", n)
		}
		want := int64(DPLeftDeepPlansFormula(n))
		if res.Stats.PlansConsidered != want {
			t.Errorf("n=%d: plans considered = %d, want n·2^(n−1) = %d",
				n, res.Stats.PlansConsidered, want)
		}
		wantSpace := int64(DPLeftDeepSpaceFormula(n))
		if res.Stats.MaxLayerPlans != wantSpace {
			t.Errorf("n=%d: max layer = %d, want C(n,⌈n/2⌉) = %d",
				n, res.Stats.MaxLayerPlans, wantSpace)
		}
	}
}

func TestDPBushyTable1Counts(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		s := newSearcher(t, cliqueCfg(n), nil)
		res, err := s.DPBushy()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(DPBushyPlansFormula(n))
		if res.Stats.PlansConsidered != want {
			t.Errorf("n=%d: plans considered = %d, want 3^n − 2^(n+1) + n + 1 = %d",
				n, res.Stats.PlansConsidered, want)
		}
	}
}

// TestTable1Golden pins (PlansConsidered, MaxLayerPlans) of the four DP rows
// of Table 1 — what `paropt report T1` prints — to the values measured before
// the four DP loops were merged into dp. The DP rows equal the closed forms;
// the partial-order rows have none, so the literals are their only guard.
// The brute-force rows are internal/repro's TestTable1Golden.
func TestTable1Golden(t *testing.T) {
	type cell struct{ considered, stored int64 }
	rows := []struct {
		name string
		run  func(*Searcher) (*Result, error)
		want []cell // n = 2, 3, ... (the bushy p.o. row stops at 5)
	}{
		{"DP for left-deep", (*Searcher).DPLeftDeep,
			[]cell{{4, 2}, {12, 3}, {32, 6}, {80, 10}, {192, 20}}},
		{"p.o. DP for left-deep", (*Searcher).PODPLeftDeep,
			[]cell{{4, 2}, {19, 14}, {102, 48}, {486, 132}, {2053, 506}}},
		{"DP for bushy", (*Searcher).DPBushy,
			[]cell{{4, 2}, {15, 3}, {54, 6}, {185, 10}, {608, 20}}},
		{"p.o. DP for bushy", (*Searcher).PODPBushy,
			[]cell{{4, 2}, {29, 27}, {328, 88}, {3497, 583}}},
	}
	for _, r := range rows {
		for i, want := range r.want {
			n := i + 2
			res, err := r.run(newSearcher(t, cliqueCfg(n), nil))
			if err != nil {
				t.Fatal(err)
			}
			got := cell{res.Stats.PlansConsidered, res.Stats.MaxLayerPlans}
			if got != want {
				t.Errorf("%s n=%d: (considered, stored) = %v, want %v", r.name, n, got, want)
			}
		}
	}
}

func TestSpaceFormulas(t *testing.T) {
	if LeftDeepSpaceSize(4) != 24 || LeftDeepSpaceSize(1) != 1 {
		t.Error("LeftDeepSpaceSize wrong")
	}
	// n=3: (2·2)!/2! = 12; n=10: 18!/9! = 17643225600.
	if BushySpaceSize(3) != 12 {
		t.Errorf("BushySpaceSize(3) = %g", BushySpaceSize(3))
	}
	if BushySpaceSize(10) != 17643225600 {
		t.Errorf("BushySpaceSize(10) = %g", BushySpaceSize(10))
	}
	// §6.4: bushy/left-deep ratio at n=10 is three orders of magnitude.
	ratio := BushySpaceSize(10) / LeftDeepSpaceSize(10)
	if ratio < 1000 || ratio > 10000 {
		t.Errorf("bushy/left-deep ratio at n=10 = %.0f, want ~4862 (3 orders)", ratio)
	}
	if Binomial(5, 2) != 10 || Binomial(5, 0) != 1 || Binomial(5, 6) != 0 || Binomial(5, -1) != 0 {
		t.Error("Binomial wrong")
	}
	if DPLeftDeepPlansFormula(4) != 32 {
		t.Error("DPLeftDeepPlansFormula wrong")
	}
	if DPBushyPlansFormula(3) != 27-16+3+1 {
		t.Error("DPBushyPlansFormula wrong")
	}
	if DPLeftDeepSpaceFormula(4) != 6 {
		t.Error("DPLeftDeepSpaceFormula wrong")
	}
}

// TestBushyNoWorseThanLeftDeep: the bushy space contains every left-deep
// plan, so its optimum cannot be worse.
func TestBushyNoWorseThanLeftDeep(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Star
	cfg.IndexProb = 0.3
	sl := newSearcher(t, cfg, func(o *Options) { exactOpts(o) })
	ld, err := sl.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	sb := newSearcher(t, cfg, func(o *Options) { exactOpts(o) })
	bushy, err := sb.PODPBushy()
	if err != nil {
		t.Fatal(err)
	}
	if bushy.Best.RT() > ld.Best.RT()+1e-6 {
		t.Errorf("bushy RT %.4f worse than left-deep RT %.4f", bushy.Best.RT(), ld.Best.RT())
	}
}

// example3Searcher builds the paper's Example 3 database: CTR with a
// clustered (covering) index I_CT on disk 1 and an unclustered (covering)
// index I_CR on disk 2, CI with covering index I_C on disk 1. CPU costs are
// zeroed ("considering disk1 and disk2 to be the only significant
// resources") and only nested-loops is allowed, as in the example.
func example3Searcher(t testing.TB, metric Metric) *Searcher {
	t.Helper()
	cat := catalogForExample3()
	q := &query.Query{
		Name:      "example3",
		Relations: []string{"CTR", "CI"},
		Joins: []query.JoinPredicate{{
			Left:  query.ColumnRef{Relation: "CTR", Column: "course"},
			Right: query.ColumnRef{Relation: "CI", Column: "course"},
		}},
		Projection: []query.ColumnRef{{Relation: "CTR", Column: "course"}},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 1, Disks: 2})
	p := cost.Params{IOPage: 1, IndexProbeIO: 0.02} // all CPU costs zero
	return New(Options{
		Model:    cost.NewModel(cat, m, est, p),
		Expand:   optree.ExpandOptions{},
		Annotate: optree.AnnotateOptions{MaxDegree: 1},
		Metric:   metric,
		Methods:  []plan.JoinMethod{plan.NestedLoops},
	})
}

func catalogForExample3() *catalog.Catalog {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "CTR",
		Columns: []catalog.Column{
			{Name: "course", NDV: 20000, Width: 8},
			{Name: "time", NDV: 100, Width: 8},
			{Name: "room", NDV: 200, Width: 8},
		},
		Card: 20000, Pages: 5000, Disk: 0,
	})
	// CI is ten times larger than CTR, so driving the nested loops from CI
	// (200 000 probes) is never attractive — the example's plans keep CTR
	// as the outer.
	cat.MustAddRelation(catalog.Relation{
		Name: "CI",
		Columns: []catalog.Column{
			{Name: "course", NDV: 20000, Width: 8},
			{Name: "instructor", NDV: 500, Width: 8},
		},
		Card: 200000, Pages: 20000, Disk: 1,
	})
	// I_CT: cheaper scan (200 pages) but on disk 0 — the disk I_C shares.
	cat.MustAddIndex(catalog.Index{
		Name: "I_CT", Relation: "CTR", Columns: []string{"course", "time"},
		Clustered: true, Covering: true, Disk: 0, Pages: 200,
	})
	// I_CR: slightly dearer scan (250 pages) but on the idle disk 1.
	cat.MustAddIndex(catalog.Index{
		Name: "I_CR", Relation: "CTR", Columns: []string{"course", "room"},
		Covering: true, Disk: 1, Pages: 250,
	})
	// I_C: the join's inner probes land on disk 0 (0.02 I/O × 20000 = 400).
	cat.MustAddIndex(catalog.Index{
		Name: "I_C", Relation: "CI", Columns: []string{"course"},
		Covering: true, Disk: 0, Pages: 1000,
	})
	return cat
}

// TestExample3OptimalityViolation replays Example 3 end to end through the
// real optimizer: the total-order response-time metric keeps only
// indexScan(I_CT) (RT 200 < 250) and is forced into the contended final plan
// (RT 600), while partial-order DP on resource vectors keeps both access
// plans and finds the true optimum (RT 400).
func TestExample3OptimalityViolation(t *testing.T) {
	// Naive total-order DP on response time.
	sRT := example3Searcher(t, RTMetric{})
	naive, err := sRT.DPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	// Partial-order DP on resource vectors.
	sPO := example3Searcher(t, nil)
	po, err := sPO.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if naive.Best == nil || po.Best == nil {
		t.Fatal("missing plans")
	}
	if got, want := naive.Best.RT(), 600.0; got != want {
		t.Errorf("naive RT-metric DP final RT = %g, want %g (kept the greedy subplan)", got, want)
	}
	if got, want := po.Best.RT(), 400.0; got != want {
		t.Errorf("PO-DP final RT = %g, want %g", got, want)
	}
	if po.Best.RT() >= naive.Best.RT() {
		t.Errorf("PO-DP (%g) must beat naive RT DP (%g): principle of optimality violated by RT",
			po.Best.RT(), naive.Best.RT())
	}
	// The winning outer is the dearer-in-isolation I_CR path.
	if got := po.Best.Node.String(); got != "NL(indexScan(I_CR), indexScan(I_C))" {
		t.Errorf("PO-DP plan = %s, want NL(indexScan(I_CR), indexScan(I_C))", got)
	}
}

// TestExample3AccessPlanRTs pins the subplan response times the example
// hinges on: RT(I_CT scan) < RT(I_CR scan).
func TestExample3AccessPlanRTs(t *testing.T) {
	s := example3Searcher(t, nil)
	leaves, err := s.leafChoices(0) // CTR
	if err != nil {
		t.Fatal(err)
	}
	rts := map[string]float64{}
	for _, n := range leaves {
		d, _, err := s.opt.Model.PlanCost(n, s.opt.Expand, s.opt.Annotate)
		if err != nil {
			t.Fatal(err)
		}
		rts[n.String()] = d.RT()
	}
	if rts["indexScan(I_CT)"] != 200 || rts["indexScan(I_CR)"] != 250 {
		t.Errorf("access RTs = %v, want I_CT:200 I_CR:250", rts)
	}
	if rts["indexScan(I_CT)"] >= rts["indexScan(I_CR)"] {
		t.Error("example requires RT(p1) < RT(p2)")
	}
}
