// Benchmark harness: one benchmark per table, figure, and experiment of the
// paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results). Counts that the paper reports analytically (Table 1,
// Theorem 3) are emitted as custom benchmark metrics so `go test -bench`
// regenerates the tables.
package paropt_test

import (
	"fmt"
	"testing"

	"paropt"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/sim"
	"paropt/internal/storage"
	"paropt/internal/workload"
)

// cliqueOptions builds the Table 1 counting fixture.
func cliqueOptions(n int) search.Options {
	cat, q := query.Generate(query.GenConfig{
		Relations: n, Shape: query.Clique,
		MinCard: 1_000, MaxCard: 1_000_000, Disks: 4, Seed: 1,
	})
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	return search.Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}
}

// BenchmarkTable1 regenerates Table 1: for each algorithm row it reports
// plans-considered and max-plans-stored as metrics, next to the analytic
// values where the paper gives closed forms.
func BenchmarkTable1(b *testing.B) {
	type row struct {
		name     string
		run      func(search.Options) (*search.Result, error)
		maxN     int
		analytic func(n int) (considered, stored float64)
	}
	dp := func(run func(*search.Searcher) (*search.Result, error)) func(search.Options) (*search.Result, error) {
		return func(opt search.Options) (*search.Result, error) { return run(search.New(opt)) }
	}
	oracle := func(run func(*repro.Searcher) (*search.Result, error)) func(search.Options) (*search.Result, error) {
		return func(opt search.Options) (*search.Result, error) { return run(repro.New(repro.Options{Options: opt})) }
	}
	rows := []row{
		{"brute-leftdeep", oracle((*repro.Searcher).BruteForceLeftDeep), 7,
			func(n int) (float64, float64) { return search.LeftDeepSpaceSize(n), 1 }},
		{"dp-leftdeep", dp((*search.Searcher).DPLeftDeep), 8,
			func(n int) (float64, float64) {
				return search.DPLeftDeepPlansFormula(n), search.DPLeftDeepSpaceFormula(n)
			}},
		{"podp-leftdeep", dp((*search.Searcher).PODPLeftDeep), 7,
			func(n int) (float64, float64) { return -1, -1 }},
		{"brute-bushy", oracle((*repro.Searcher).BruteForceBushy), 5,
			func(n int) (float64, float64) { return search.BushySpaceSize(n), 1 }},
		{"dp-bushy", dp((*search.Searcher).DPBushy), 7,
			func(n int) (float64, float64) { return search.DPBushyPlansFormula(n), -1 }},
		{"podp-bushy", dp((*search.Searcher).PODPBushy), 5,
			func(n int) (float64, float64) { return -1, -1 }},
	}
	for _, r := range rows {
		for n := 4; n <= r.maxN; n++ {
			b.Run(fmt.Sprintf("%s/n=%d", r.name, n), func(b *testing.B) {
				var stats search.Stats
				for i := 0; i < b.N; i++ {
					res, err := r.run(cliqueOptions(n))
					if err != nil {
						b.Fatal(err)
					}
					stats = res.Stats
				}
				b.ReportMetric(float64(stats.PlansConsidered), "plans-considered")
				b.ReportMetric(float64(stats.MaxLayerPlans), "plans-stored")
				if c, s := r.analytic(n); c >= 0 {
					b.ReportMetric(c, "analytic-considered")
					if s >= 0 {
						b.ReportMetric(s, "analytic-stored")
					}
				}
			})
		}
	}
}

// BenchmarkTheorem3CoverSet regenerates the Theorem 3 experiment: measured
// expected cover size vs the bound, per (m, l), for both coordinate models.
func BenchmarkTheorem3CoverSet(b *testing.B) {
	for _, dist := range []repro.Dist{repro.Binary, repro.Continuous} {
		for _, l := range []int{2, 3, 4} {
			for _, m := range []int{16, 64, 256} {
				b.Run(fmt.Sprintf("%s/l=%d/m=%d", dist, l, m), func(b *testing.B) {
					var mean, bound float64
					for i := 0; i < b.N; i++ {
						mean, bound = repro.Theorem3Experiment(m, l, 50, dist, 7)
					}
					b.ReportMetric(mean, "measured-cover")
					b.ReportMetric(bound, "bound")
				})
			}
		}
	}
}

// BenchmarkExample3 prices the Example 3 construction: the calculus
// evaluation that demonstrates the optimality violation.
func BenchmarkExample3(b *testing.B) {
	p1 := cost.ResDescriptor{First: cost.ZeroRV(2), Last: cost.RV(20, cost.Vec{20, 0})}
	p2 := cost.ResDescriptor{First: cost.ZeroRV(2), Last: cost.RV(25, cost.Vec{0, 25})}
	join := cost.ResDescriptor{First: cost.ZeroRV(2), Last: cost.RV(40, cost.Vec{40, 0})}
	var rt1, rt2 float64
	for i := 0; i < b.N; i++ {
		rt1 = p1.Pipe(join, 0).RT()
		rt2 = p2.Pipe(join, 0).RT()
	}
	b.ReportMetric(rt1, "rt-nl-p1")
	b.ReportMetric(rt2, "rt-nl-p2")
}

// BenchmarkDesiderata measures the three §5 desiderata through the
// calculus: D1 contention degradation, D3 cloning speedup.
func BenchmarkDesiderata(b *testing.B) {
	b.Run("d1-ipe-contention", func(b *testing.B) {
		var free, jam float64
		for i := 0; i < b.N; i++ {
			free = cost.RV(10, cost.Vec{10, 0}).Par(cost.RV(10, cost.Vec{0, 10})).T
			jam = cost.RV(10, cost.Vec{10, 0}).Par(cost.RV(10, cost.Vec{10, 0})).T
		}
		b.ReportMetric(free, "rt-disjoint")
		b.ReportMetric(jam, "rt-contended")
	})
	b.Run("d3-cloning", func(b *testing.B) {
		cat, q := workload.Portfolio(4)
		est := plan.NewEstimator(cat, q)
		m := machine.New(machine.Config{CPUs: 8, Disks: 4, Networks: 1})
		params := cost.DefaultParams()
		params.CloneOverhead = 0
		params.SortMemPages = 1 << 40 // in-memory: the sort is pure CPU
		model := cost.NewModel(cat, m, est, params)
		mk := func(deg int) *optree.Op {
			scan := &optree.Op{Kind: optree.Scan, Relation: "sectors", OutCard: 100, Width: 40}
			sort := &optree.Op{
				Kind: optree.Sort, Inputs: []*optree.Op{scan},
				Composition: optree.Materialized, InCard: 2_000_000, OutCard: 2_000_000, Width: 40,
			}
			res := make([]machine.ResourceID, deg)
			for i := range res {
				res[i] = m.CPUFor(i)
			}
			sort.Clone = optree.Cloning{Resources: res}
			return sort
		}
		var rt1, rt8 float64
		for i := 0; i < b.N; i++ {
			rt1 = model.RT(mk(1))
			rt8 = model.RT(mk(8))
		}
		b.ReportMetric(rt1, "rt-serial")
		b.ReportMetric(rt8, "rt-cloned-8")
	})
}

// BenchmarkDeltaAblation sweeps the δ(k) pipeline penalty (D2): response
// time of the portfolio plan under rising k on a contended machine.
func BenchmarkDeltaAblation(b *testing.B) {
	for _, k := range []float64{0, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("k=%g", k), func(b *testing.B) {
			cat, q := workload.Portfolio(1)
			params := cost.DefaultParams()
			params.PipelineK = k
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
				Machine: machine.Config{CPUs: 1, Disks: 1},
				Params:  &params,
			})
			if err != nil {
				b.Fatal(err)
			}
			var rt float64
			for i := 0; i < b.N; i++ {
				p, err := paropt.Optimize(opt, paropt.Run{})
				if err != nil {
					b.Fatal(err)
				}
				rt = p.RT()
			}
			b.ReportMetric(rt, "rt")
		})
	}
}

// BenchmarkMetricAblation compares pruning metrics on the same query
// (DESIGN.md decision 1): search cost, cover size, and plan quality.
func BenchmarkMetricAblation(b *testing.B) {
	mkOpts := func() search.Options {
		cat, q := workload.Portfolio(4)
		est := plan.NewEstimator(cat, q)
		m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
		return search.Options{
			Model:              cost.NewModel(cat, m, est, cost.DefaultParams()),
			Expand:             optree.DefaultExpandOptions(),
			Annotate:           optree.DefaultAnnotateOptions(),
			AvoidCrossProducts: true,
		}
	}
	dim := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1}).NumResources()
	metrics := []struct {
		name string
		m    search.Metric
	}{
		{"work", search.WorkMetric{}},
		{"naive-rt", search.RTMetric{}},
		{"resource-vector", search.ResourceVectorMetric{L: dim}},
		{"vector+order", search.OrderedMetric{Base: search.ResourceVectorMetric{L: dim}}},
	}
	for _, mt := range metrics {
		b.Run(mt.name, func(b *testing.B) {
			var res *search.Result
			for i := 0; i < b.N; i++ {
				opts := mkOpts()
				opts.Metric = mt.m
				var err error
				res, err = search.New(opts).PODPLeftDeep()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.PlansConsidered), "plans-considered")
			b.ReportMetric(float64(res.Stats.MaxCoverSize), "max-cover")
			b.ReportMetric(res.Best.RT(), "final-rt")
		})
	}
}

// BenchmarkWorkBoundPruning measures how the §2 bound cuts the search
// space (S2): plans considered under tightening k.
func BenchmarkWorkBoundPruning(b *testing.B) {
	for _, k := range []float64{0, 3, 1.5, 1.1} {
		name := "unbounded"
		if k > 0 {
			name = fmt.Sprintf("k=%g", k)
		}
		b.Run(name, func(b *testing.B) {
			cat, q := workload.Portfolio(4)
			var r paropt.Run
			if k > 0 {
				r.Bound = search.ThroughputDegradation{K: k}
			}
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{Machine: machine.Config{CPUs: 4, Disks: 4, Networks: 1}})
			if err != nil {
				b.Fatal(err)
			}
			var p *paropt.Plan
			for i := 0; i < b.N; i++ {
				p, err = paropt.Optimize(opt, r)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats.PlansConsidered), "plans-considered")
			b.ReportMetric(p.RT(), "rt")
			b.ReportMetric(p.Work(), "work")
		})
	}
}

// BenchmarkResourceAggregation is the §6.3 advice quantified: model all
// disks as one resource (smaller l) vs individually.
func BenchmarkResourceAggregation(b *testing.B) {
	for _, agg := range []bool{false, true} {
		name := "per-disk"
		if agg {
			name = "aggregated"
		}
		b.Run(name, func(b *testing.B) {
			cat, q := workload.Portfolio(8)
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
				Machine: machine.Config{CPUs: 4, Disks: 8, Networks: 1, AggregateDisks: agg},
			})
			if err != nil {
				b.Fatal(err)
			}
			var p *paropt.Plan
			for i := 0; i < b.N; i++ {
				p, err = paropt.Optimize(opt, paropt.Run{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats.MaxCoverSize), "max-cover")
			b.ReportMetric(float64(p.Stats.PlansConsidered), "plans-considered")
			b.ReportMetric(p.RT(), "rt")
		})
	}
}

// BenchmarkBushyVsLeftDeep compares the two search spaces (§6.4): cost of
// search and quality of the found plan.
func BenchmarkBushyVsLeftDeep(b *testing.B) {
	algs := []struct {
		name string
		alg  paropt.Algorithm
	}{
		{"leftdeep", paropt.PartialOrderDP},
		{"bushy", paropt.PartialOrderDPBushy},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) {
			cat, q := workload.Portfolio(4)
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
				Machine: machine.Config{CPUs: 4, Disks: 4, Networks: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			var p *paropt.Plan
			for i := 0; i < b.N; i++ {
				p, err = paropt.Optimize(opt, paropt.Run{Algorithm: a.alg})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats.PlansConsidered), "plans-considered")
			b.ReportMetric(p.RT(), "rt")
		})
	}
}

// BenchmarkSimulator measures simulator throughput and the model/simulator
// response-time agreement on the portfolio plan (V1).
func BenchmarkSimulator(b *testing.B) {
	cat, q := workload.Portfolio(4)
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{})
	if err != nil {
		b.Fatal(err)
	}
	var res *sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = paropt.Simulate(p.Op, opt.Mod)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RT, "sim-rt")
	b.ReportMetric(p.RT(), "model-rt")
}

// BenchmarkEndToEnd is V2: the full pipeline — optimize (bounded), then
// execute on real data with parallel goroutines.
func BenchmarkEndToEnd(b *testing.B) {
	cat, q := workload.PortfolioSmall(4)
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	db := storage.NewDatabase(cat, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := paropt.Optimize(opt, paropt.Run{Bound: search.ThroughputDegradation{K: 2}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Execute(p, db, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostCalculus microbenchmarks the §5 descriptor operators.
func BenchmarkCostCalculus(b *testing.B) {
	l := 9
	x := cost.ResDescriptor{First: cost.ZeroRV(l), Last: cost.RV(10, seqVec(l))}
	y := cost.ResDescriptor{First: cost.ZeroRV(l), Last: cost.RV(8, seqVec(l))}
	root := cost.ResDescriptor{First: cost.ZeroRV(l), Last: cost.RV(3, seqVec(l))}
	b.Run("pipe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Pipe(y, 0.5)
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cost.TreeDesc(x, y, root, 0.5)
		}
	})
}

func seqVec(l int) cost.Vec {
	v := cost.NewVec(l)
	for i := range v {
		v[i] = float64(i%3) + 1
	}
	return v
}

// BenchmarkEngineJoin measures real join execution throughput per method
// and parallelism degree.
func BenchmarkEngineJoin(b *testing.B) {
	cat, q := workload.PortfolioSmall(2)
	q.Selections = nil
	q.Projection = nil // the 2-relation subjoin lacks the full schema
	db := storage.NewDatabase(cat, 3)
	est := plan.NewEstimator(cat, q)
	for _, method := range plan.AllJoinMethods {
		for _, deg := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p=%d", method, deg), func(b *testing.B) {
				trades, _ := est.Leaf("trades", plan.SeqScan, nil)
				stocks, _ := est.Leaf("stocks", plan.SeqScan, nil)
				j, err := est.Join(trades, stocks, method)
				if err != nil {
					b.Fatal(err)
				}
				e := &paropt.Executor{DB: db, Q: q, Parallel: deg}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := e.Execute(j)
					if err != nil {
						b.Fatal(err)
					}
					if res.Len() == 0 {
						b.Fatal("empty join result")
					}
				}
			})
		}
	}
}

// BenchmarkOptimizerScaling: wall-clock of the recommended algorithm as n
// grows (the practicality claim of §6.2).
func BenchmarkOptimizerScaling(b *testing.B) {
	for _, n := range []int{4, 6, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cat, q := query.Generate(query.GenConfig{
				Relations: n, Shape: query.Chain,
				MinCard: 10_000, MaxCard: 1_000_000,
				Disks: 4, IndexProb: 0.3, Seed: 5,
			})
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := paropt.Optimize(opt, paropt.Run{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
