package repro

import (
	"math/rand"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/search"
	"paropt/internal/workload"
)

// newOracle builds an oracle over a generated workload.
func newOracle(t testing.TB, cfg query.GenConfig) *Searcher {
	t.Helper()
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	return New(Options{Options: search.Options{
		Model:    cost.NewModel(cat, m, plan.NewEstimator(cat, q), cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}})
}

func cliqueCfg(n int) query.GenConfig {
	cfg := query.DefaultGenConfig()
	cfg.Relations = n
	cfg.Shape = query.Clique
	cfg.IndexProb = 0 // one access path per relation keeps counting exact
	cfg.SortedProb = 0
	return cfg
}

// TestTable1Golden pins (PlansConsidered, MaxLayerPlans) of the two
// brute-force rows of Table 1 — what `paropt report T1` prints — beside the
// DP rows internal/search's TestTable1Golden pins.
func TestTable1Golden(t *testing.T) {
	type cell struct{ considered, stored int64 }
	rows := []struct {
		name string
		run  func(*Searcher) (*search.Result, error)
		want []cell // n = 2, 3, ... (the bushy row stops at 5)
	}{
		{"brute force for left-deep", (*Searcher).BruteForceLeftDeep,
			[]cell{{2, 1}, {6, 1}, {24, 1}, {120, 1}, {720, 1}}},
		{"brute force for bushy", (*Searcher).BruteForceBushy,
			[]cell{{2, 1}, {12, 1}, {120, 1}, {1680, 1}}},
	}
	for _, r := range rows {
		for i, want := range r.want {
			n := i + 2
			res, err := r.run(newOracle(t, cliqueCfg(n)))
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

// degenerate builds an oracle over rels 100-row relations, chained by
// predicates when joins is set.
func degenerate(t *testing.T, rels int, joins bool) *Searcher {
	t.Helper()
	cat := catalog.New()
	var names []string
	for i := 0; i < rels; i++ {
		name := string(rune('A' + i))
		names = append(names, name)
		cat.MustAddRelation(catalog.Relation{
			Name:    name,
			Columns: []catalog.Column{{Name: "k", NDV: 50, Width: 8}},
			Card:    100, Pages: 2, Disk: i,
		})
	}
	q := &query.Query{Relations: names}
	if joins {
		for i := 0; i+1 < rels; i++ {
			q.Joins = append(q.Joins, query.JoinPredicate{
				Left:  query.ColumnRef{Relation: names[i], Column: "k"},
				Right: query.ColumnRef{Relation: names[i+1], Column: "k"},
			})
		}
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{CPUs: 2, Disks: 2})
	return New(Options{Options: search.Options{
		Model:              cost.NewModel(cat, m, plan.NewEstimator(cat, q), cost.DefaultParams()),
		Expand:             optree.DefaultExpandOptions(),
		Annotate:           optree.DefaultAnnotateOptions(),
		AvoidCrossProducts: true,
	}})
}

// TestSingleRelationQuery: every oracle reduces to access-path selection.
func TestSingleRelationQuery(t *testing.T) {
	for _, a := range []struct {
		name string
		run  func(*Searcher) (*search.Result, error)
	}{
		{"brute", (*Searcher).BruteForceLeftDeep},
		{"brute-bushy", (*Searcher).BruteForceBushy},
		{"two-phase", (*Searcher).TwoPhase},
	} {
		res, err := a.run(degenerate(t, 1, false))
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if res.Best == nil || !res.Best.Node.IsLeaf() {
			t.Errorf("%s: expected a bare access plan, got %v", a.name, res.Best)
		}
	}
}

// TestEmptyQueryErrors: zero relations is a caller error for every oracle.
func TestEmptyQueryErrors(t *testing.T) {
	s := degenerate(t, 1, false)
	s.q = &query.Query{} // force empty
	for _, run := range []func(*Searcher) (*search.Result, error){
		(*Searcher).BruteForceLeftDeep, (*Searcher).BruteForceBushy,
	} {
		if _, err := run(s); err == nil {
			t.Error("empty query should error")
		}
	}
	if _, err := s.Randomized(DefaultRandomizedOptions()); err == nil {
		t.Error("randomized: empty query should error")
	}
}

// TestShapeMovesPreservePermutation: every mutation keeps the tree a valid
// bushy tree over exactly the n relations.
func TestShapeMovesPreservePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := []int{1, 2, 1, 3, 1}
	sh := randomShape(5, rng, counts)
	for i := 0; i < 500; i++ {
		mutate(sh, rng, counts)
		var internal, leaves []*shape
		sh.collect(&internal, &leaves)
		if len(leaves) != 5 || len(internal) != 4 {
			t.Fatalf("move %d: %d leaves, %d internal", i, len(leaves), len(internal))
		}
		seen := map[int]bool{}
		for _, l := range leaves {
			if seen[l.leaf] {
				t.Fatalf("move %d: duplicate relation %d", i, l.leaf)
			}
			seen[l.leaf] = true
			if l.access < 0 || l.access >= counts[l.leaf] {
				t.Fatalf("move %d: access %d out of range", i, l.access)
			}
		}
	}
}

func TestShapeClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sh := randomShape(4, rng, []int{1, 1, 1, 1})
	cp := sh.clone()
	mutate(cp, rng, []int{1, 1, 1, 1})
	// Mutating the clone must never corrupt the original's leaf count.
	var internal, leaves []*shape
	sh.collect(&internal, &leaves)
	if len(leaves) != 4 {
		t.Fatal("clone aliased the original")
	}
}

// TestServedPlanIsTheFirstRow: the plan a cover set materializes — what the
// daemon serves — names the row this package's PartialOrderDP runs, and is
// that row's unbounded plan.
func TestServedPlanIsTheFirstRow(t *testing.T) {
	cat, q := query.Generate(query.DefaultGenConfig())
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := o.CoverSet()
	if err != nil {
		t.Fatal(err)
	}
	served, err := o.SelectBounded(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(o, Run{})
	if err != nil {
		t.Fatal(err)
	}
	if served.Algorithm != PartialOrderDP.String() || p.Algorithm != served.Algorithm {
		t.Errorf("served plan says %q, Optimize %q, want %q", served.Algorithm, p.Algorithm, PartialOrderDP)
	}
	if served.Tree.String() != p.Tree.String() || served.Desc.RT() != p.Desc.RT() {
		t.Errorf("served %s rt=%v, Optimize %s rt=%v", served.Tree, served.RT(), p.Tree, p.RT())
	}
}

// chainSession is `paropt -workload chain -n 5 -seed 2` on its default
// 4-CPU, 4-disk machine.
func chainSession(t *testing.T) *core.Optimizer {
	t.Helper()
	cat, q := query.Generate(query.GenConfig{
		Relations: 5, Shape: query.Chain,
		MinCard: 10_000, MaxCard: 1_000_000,
		Disks: 4, IndexProb: 0.5, SortedProb: 0.25, Seed: 2,
	})
	o, err := core.NewOptimizer(cat, q, core.Config{Machine: machine.Config{CPUs: 4, Disks: 4, Networks: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestEveryAlgorithmHonoursTheBound: a §2 bound constrains whichever
// algorithm runs, not only the partial-order DP. Under k = 1 no plan may do
// more work than the work optimum Wo; unbounded, brute force's plan on this
// query does about 3 % more.
func TestEveryAlgorithmHonoursTheBound(t *testing.T) {
	o := chainSession(t)
	base, err := Optimize(o, Run{Algorithm: WorkDP})
	if err != nil {
		t.Fatal(err)
	}
	wo := base.Work()
	bound := search.ThroughputDegradation{K: 1}
	for _, alg := range []Algorithm{BruteForceLeftDeep, BruteForceBushy, TwoPhase, IterativeImprovement, SimulatedAnnealing} {
		p, err := Optimize(o, Run{Algorithm: alg, Bound: bound})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if p.Work() > bound.K*wo {
			t.Errorf("%v under %s: work %.0f exceeds k·Wo = %.0f", alg, bound.Name(), p.Work(), bound.K*wo)
		}
		if p.Baseline == nil || p.Baseline.Work() != wo {
			t.Errorf("%v under %s: baseline %v, want the work optimum (Wo = %.0f)", alg, bound.Name(), p.Baseline, wo)
		}
	}
}

// TestTwoPhasePlanIsPhaseTwosChoice: the plan Optimize returns for
// two-phase is the parallelization phase two chose, its descriptor and its
// operator tree both, not the work-optimal tree re-annotated under the
// session's defaults. On the portfolio query the two differ.
func TestTwoPhasePlanIsPhaseTwosChoice(t *testing.T) {
	cat, q := workload.Portfolio(4)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{Options: o.SearchOptions()}).TwoPhase()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(o, Run{Algorithm: TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT() != res.Best.RT() || p.Work() != res.Best.Work() {
		t.Errorf("plan at RT %.1f / work %.1f, phase two chose RT %.1f / work %.1f",
			p.RT(), p.Work(), res.Best.RT(), res.Best.Work())
	}
	if d := o.Mod.Descriptor(p.Op); d.RT() != p.RT() || d.Work() != p.Work() {
		t.Errorf("operator tree prices at RT %.1f / work %.1f, the plan says %.1f / %.1f", d.RT(), d.Work(), p.RT(), p.Work())
	}
}

// TestTwoPhaseHonoursMemoryLimit: a two-phase plan is held to the session's
// memory limit like every other algorithm's, so a limit just under the
// unconstrained two-phase plan's peak yields another plan or none, never
// that plan.
func TestTwoPhaseHonoursMemoryLimit(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := query.DefaultGenConfig()
		cfg.Relations, cfg.Seed = 5, seed
		cat, q := query.Generate(cfg)
		free, err := core.NewOptimizer(cat, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Optimize(free, Run{Algorithm: TwoPhase})
		if err != nil {
			t.Fatal(err)
		}
		limit := free.Mod.MemoryEstimate(p.Op).PeakPages - 1
		tight, err := core.NewOptimizer(cat, q, core.Config{MemoryPages: limit})
		if err != nil {
			t.Fatal(err)
		}
		p, err = Optimize(tight, Run{Algorithm: TwoPhase})
		if err != nil {
			continue // no parallelization of the work-optimal tree fits
		}
		if peak := tight.Mod.MemoryEstimate(p.Op).PeakPages; peak > limit {
			t.Errorf("seed %d: two-phase plan peaks at %d pages, limit %d", seed, peak, limit)
		}
	}
}
