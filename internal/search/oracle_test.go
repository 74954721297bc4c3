package search_test

// The oracles of internal/repro — brute force, two-phase and the randomized
// searches — checked against the dynamic program Table 1 compares them with.
// What these tests pin is the DP's correctness and its Table 1 accounting,
// so they stay beside the DP's own tests, driving both through their
// exported surfaces.

import (
	"strings"
	"testing"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/search"
)

// newOptions builds search options over a generated workload.
func newOptions(t testing.TB, cfg query.GenConfig, mut func(*search.Options)) search.Options {
	t.Helper()
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	opt := search.Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}
	if mut != nil {
		mut(&opt)
	}
	return opt
}

// newDP builds a DP searcher over a generated workload.
func newDP(t testing.TB, cfg query.GenConfig, mut func(*search.Options)) *search.Searcher {
	return search.New(newOptions(t, cfg, mut))
}

// newOracle builds an oracle over a generated workload.
func newOracle(t testing.TB, cfg query.GenConfig, mut func(*repro.Options)) *repro.Searcher {
	opt := repro.Options{Options: newOptions(t, cfg, nil)}
	if mut != nil {
		mut(&opt)
	}
	return repro.New(opt)
}

func cliqueCfg(n int) query.GenConfig {
	cfg := query.DefaultGenConfig()
	cfg.Relations = n
	cfg.Shape = query.Clique
	cfg.IndexProb = 0 // one access path per relation keeps counting exact
	cfg.SortedProb = 0
	return cfg
}

// exactOpts makes the calculus exactly monotone (δ off, no cloning), making
// partial-order DP provably optimal and comparable with exhaustive brute
// force.
func exactOpts(o *search.Options) {
	o.Model.P.PipelineK = 0
	o.Annotate.MaxDegree = 1
}

// exhaustive is exactOpts for an oracle that also carries every physical
// choice through.
func exhaustive(o *repro.Options) {
	exactOpts(&o.Options)
	o.ExhaustivePhysical = true
}

// byWork ranks and prunes by work: Figure 1's total order.
func byWork(o *search.Options) {
	o.Metric = search.WorkMetric{}
	o.Final = search.ByWork
}

func TestBruteForceLeftDeepTable1Counts(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		res, err := newOracle(t, cliqueCfg(n), nil).BruteForceLeftDeep()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(search.LeftDeepSpaceSize(n))
		if res.Stats.PlansConsidered != want {
			t.Errorf("n=%d: plans considered = %d, want n! = %d",
				n, res.Stats.PlansConsidered, want)
		}
		if res.Stats.MaxLayerPlans != 1 {
			t.Errorf("n=%d: brute force stores %d, want 1", n, res.Stats.MaxLayerPlans)
		}
	}
}

func TestBruteForceBushyTable1Counts(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		res, err := newOracle(t, cliqueCfg(n), nil).BruteForceBushy()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(search.BushySpaceSize(n))
		if res.Stats.PlansConsidered != want {
			t.Errorf("n=%d: plans considered = %d, want (2(n−1))!/(n−1)! = %d",
				n, res.Stats.PlansConsidered, want)
		}
	}
}

// TestPODPMatchesExhaustiveBruteForce: with an exactly monotone calculus the
// partial-order DP over left-deep trees must find the same optimal response
// time as exhaustive enumeration — the correctness core of Figure 2.
func TestPODPMatchesExhaustiveBruteForce(t *testing.T) {
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Clique} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := query.DefaultGenConfig()
			cfg.Relations = 4
			cfg.Shape = shape
			cfg.Seed = seed
			cfg.IndexProb = 0.7
			podp, err := newDP(t, cfg, exactOpts).PODPLeftDeep()
			if err != nil {
				t.Fatal(err)
			}
			brute, err := newOracle(t, cfg, exhaustive).BruteForceLeftDeep()
			if err != nil {
				t.Fatal(err)
			}
			if podp.Best == nil || brute.Best == nil {
				t.Fatalf("%v/%d: missing plan", shape, seed)
			}
			if diff := podp.Best.RT() - brute.Best.RT(); diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%v/%d: PODP RT %.4f != brute-force RT %.4f (plan %s vs %s)",
					shape, seed, podp.Best.RT(), brute.Best.RT(), podp.Best.Node, brute.Best.Node)
			}
		}
	}
}

// TestPODPBushyMatchesExhaustive: same agreement over the bushy space.
func TestPODPBushyMatchesExhaustive(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Chain
	cfg.Seed = 7
	podp, err := newDP(t, cfg, exactOpts).PODPBushy()
	if err != nil {
		t.Fatal(err)
	}
	brute, err := newOracle(t, cfg, exhaustive).BruteForceBushy()
	if err != nil {
		t.Fatal(err)
	}
	if podp.Best == nil || brute.Best == nil {
		t.Fatal("missing plan")
	}
	if diff := podp.Best.RT() - brute.Best.RT(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("PODP bushy RT %.4f != brute RT %.4f", podp.Best.RT(), brute.Best.RT())
	}
}

// TestBruteForceMatchesDPOnWork: brute force with greedy physical choices
// by work must find the DP's work optimum on a clique (same joinPlan logic,
// exhaustive orders).
func TestBruteForceMatchesDPOnWork(t *testing.T) {
	cfg := cliqueCfg(5)
	dp, err := newDP(t, cfg, byWork).DPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	brute, err := newOracle(t, cfg, func(o *repro.Options) { byWork(&o.Options) }).BruteForceLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if dp.Best.Work() != brute.Best.Work() {
		t.Errorf("DP work %g != brute-force work %g", dp.Best.Work(), brute.Best.Work())
	}
}

// TestTwoPhaseNeverBeatsExhaustive: two-phase restricts the space, so it
// cannot find a lower RT than partial-order DP over the same trees.
func TestTwoPhaseNeverBeatsExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		cfg := query.DefaultGenConfig()
		cfg.Relations = 4
		cfg.Seed = seed
		two, err := newOracle(t, cfg, nil).TwoPhase()
		if err != nil {
			t.Fatal(err)
		}
		podp, err := newDP(t, cfg, nil).PODPLeftDeep()
		if err != nil {
			t.Fatal(err)
		}
		if podp.Best.RT() > two.Best.RT()+1e-9 {
			t.Errorf("seed %d: PODP rt %g lost to two-phase rt %g", seed, podp.Best.RT(), two.Best.RT())
		}
	}
}

// TestBruteForceReturnsCostingErrors: the oracles the DP is cross-checked
// against must fail the same way — BruteForceBushy used to return from its
// split closure on a costing error, coming back with a smaller plan space (or
// none) and err == nil.
func TestBruteForceReturnsCostingErrors(t *testing.T) {
	for name, run := range map[string]func(*repro.Searcher) (*search.Result, error){
		"BruteForceLeftDeep": (*repro.Searcher).BruteForceLeftDeep,
		"BruteForceBushy":    (*repro.Searcher).BruteForceBushy,
	} {
		s := newOracle(t, cliqueCfg(3), func(o *repro.Options) {
			o.Methods = []plan.JoinMethod{plan.JoinMethod(99)}
		})
		if res, err := run(s); err == nil {
			t.Errorf("%s: unknown join method returned err == nil (Best %v)", name, res.Best)
		}
	}
}

func TestTwoPhase(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Star
	res, err := newOracle(t, cfg, nil).TwoPhase()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("two-phase found no plan")
	}
	// Phase one fixes the join tree to the work-optimal one.
	base, err := newDP(t, cfg, nil).WorkOptimalBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Node.String() != base.Node.String() {
		t.Errorf("two-phase changed the tree: %s vs %s", res.Best.Node, base.Node)
	}
	// Phase two may only improve on the baseline's default annotation RT.
	onePhase, err := newDP(t, cfg, nil).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if onePhase.Best.RT() > res.Best.RT()+1e-9 {
		t.Errorf("one-phase PO-DP rt %.2f must not lose to two-phase rt %.2f over the same space",
			onePhase.Best.RT(), res.Best.RT())
	}
}

func TestRandomizedFindsValidPlan(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 6
	cfg.Shape = query.Chain
	opts := repro.DefaultRandomizedOptions()
	opts.Restarts = 4
	opts.Moves = 100
	res, err := newOracle(t, cfg, nil).Randomized(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("randomized search found no plan")
	}
	if got := len(res.Best.Node.Leaves()); got != 6 {
		t.Fatalf("plan covers %d relations, want 6", got)
	}
	seen := map[string]bool{}
	for _, l := range res.Best.Node.Leaves() {
		if seen[l.Relation] {
			t.Fatalf("relation %s appears twice", l.Relation)
		}
		seen[l.Relation] = true
	}
	if res.Stats.PlansConsidered < int64(opts.Restarts) {
		t.Error("stats not collected")
	}
}

func TestRandomizedDeterministic(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	opts := repro.DefaultRandomizedOptions()
	opts.Restarts = 2
	opts.Moves = 50
	a, err := newOracle(t, cfg, nil).Randomized(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newOracle(t, cfg, nil).Randomized(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.RT() != b.Best.RT() || a.Best.Node.String() != b.Best.Node.String() {
		t.Error("same seed must find the same plan")
	}
}

// TestRandomizedNearOptimal: on a small query where exhaustive search is
// feasible, the randomized search should land within 2x of the optimum
// (and usually on it).
func TestRandomizedNearOptimal(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Star
	best, err := newDP(t, cfg, exactOpts).PODPBushy()
	if err != nil {
		t.Fatal(err)
	}
	rnd := newOracle(t, cfg, func(o *repro.Options) {
		o.Model.P.PipelineK = 0
		o.Annotate.MaxDegree = 1
	})
	opts := repro.DefaultRandomizedOptions()
	opts.Restarts = 6
	opts.Moves = 300
	res, err := rnd.Randomized(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.RT() > 2*best.Best.RT() {
		t.Errorf("randomized rt %.2f more than 2x optimal %.2f", res.Best.RT(), best.Best.RT())
	}
	if res.Best.RT() < best.Best.RT()-1e-6 {
		t.Errorf("randomized rt %.2f beats the proven optimum %.2f — optimality bug",
			res.Best.RT(), best.Best.RT())
	}
}

func TestAnnealingAcceptsUphill(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 6
	cfg.Shape = query.Cycle
	opts := repro.DefaultRandomizedOptions()
	opts.Anneal = true
	opts.Restarts = 2
	opts.Moves = 200
	res, err := newOracle(t, cfg, nil).Randomized(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("annealing found no plan")
	}
}

func TestRandomizedWithWorkLimit(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	base, err := newDP(t, cfg, nil).WorkOptimalBaseline()
	if err != nil {
		t.Fatal(err)
	}
	limit := base.Work() * 1.2
	s := newOracle(t, cfg, func(o *repro.Options) { o.WorkLimit = limit })
	res, err := s.Randomized(repro.DefaultRandomizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil && res.Best.Work() > limit+1e-9 {
		t.Errorf("plan work %g exceeds limit %g", res.Best.Work(), limit)
	}
}

// TestLayerRecordsAggregateToStats cross-checks the per-layer telemetry
// against the search totals for every strategy that records layers: the
// deltas captured at layer boundaries must partition the cumulative
// counters, and the prune reasons must partition the prune total.
func TestLayerRecordsAggregateToStats(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Chain

	strategies := []struct {
		name       string
		run        func(opt search.Options) (*search.Result, error)
		wantLayers int
	}{
		{"brute", func(opt search.Options) (*search.Result, error) {
			return repro.New(repro.Options{Options: opt}).BruteForceLeftDeep()
		}, 1},
		{"podp", func(opt search.Options) (*search.Result, error) { return search.New(opt).PODPLeftDeep() }, 5},
		{"podp-bushy", func(opt search.Options) (*search.Result, error) { return search.New(opt).PODPBushy() }, 5},
		{"dp", func(opt search.Options) (*search.Result, error) { return search.New(opt).DPLeftDeep() }, 5},
		{"randomized", func(opt search.Options) (*search.Result, error) {
			opts := repro.DefaultRandomizedOptions()
			opts.Seed = 42
			return repro.New(repro.Options{Options: opt}).Randomized(opts)
		}, 1},
	}
	for _, tc := range strategies {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(newOptions(t, cfg, nil))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if len(st.Layers) != tc.wantLayers {
				t.Fatalf("recorded %d layers, want %d", len(st.Layers), tc.wantLayers)
			}
			var considered, physical, pruned, kept int64
			for _, l := range st.Layers {
				considered += l.Considered
				physical += l.Physical
				pruned += l.Pruned()
				kept += l.Kept
				if l.Pruned() != l.PrunedDominance+l.PrunedWork+l.PrunedMemory+l.PrunedBeam {
					t.Errorf("layer %d prune reasons don't partition: %+v", l.Card, l)
				}
				if l.WallNanos < 0 || l.BytesRetained < 0 {
					t.Errorf("layer %d has negative aggregates: %+v", l.Card, l)
				}
			}
			if considered != st.PlansConsidered {
				t.Errorf("layer considered sum %d != stats %d", considered, st.PlansConsidered)
			}
			if physical != st.PhysicalPlans {
				t.Errorf("layer physical sum %d != stats %d", physical, st.PhysicalPlans)
			}
			if pruned != st.Pruned {
				t.Errorf("layer pruned sum %d != stats %d", pruned, st.Pruned)
			}
			if st.Pruned != st.PrunedDominance+st.PrunedWork+st.PrunedMemory+st.PrunedBeam {
				t.Errorf("stats prune reasons don't partition the total: %+v", st)
			}
			if res.Best != nil && kept == 0 {
				t.Error("a successful search should retain candidates in its layers")
			}

			// The aggregated profile mirrors the records and renders.
			p := st.Profile()
			if len(p.Layers) != tc.wantLayers {
				t.Errorf("profile layers = %d, want %d", len(p.Layers), tc.wantLayers)
			}
			table := st.Table(res.Best)
			if !strings.Contains(table, "layer") || !strings.Contains(table, "total") {
				t.Errorf("profile table incomplete:\n%s", table)
			}
		})
	}
}

// TestTwoPhaseRecordsPseudoLayer: the two-phase strategy records exactly one
// pseudo-layer spanning both phases.
func TestTwoPhaseRecordsPseudoLayer(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Star
	res, err := newOracle(t, cfg, nil).TwoPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Layers) != 1 {
		t.Fatalf("two-phase should record 1 pseudo-layer, got %d", len(res.Stats.Layers))
	}
	l := res.Stats.Layers[0]
	if l.Card != 4 || l.Subsets != 1 {
		t.Errorf("pseudo-layer shape wrong: %+v", l)
	}
	if res.Best != nil && l.Kept != 1 {
		t.Errorf("pseudo-layer should keep the winner: %+v", l)
	}
	if l.Considered != res.Stats.PlansConsidered {
		t.Errorf("pseudo-layer considered %d != stats %d", l.Considered, res.Stats.PlansConsidered)
	}
}
