// Extension benchmarks: the §7 future-work features built in this
// reproduction (two-phase baseline, non-exhaustive search, memory
// constraint, scheduling policies) and the TPC-H-like workload.
package paropt_test

import (
	"fmt"
	"testing"

	"paropt"
	"paropt/internal/engine"
	"paropt/internal/machine"
	"paropt/internal/sim"
	"paropt/internal/storage"
	"paropt/internal/workload"
)

// BenchmarkBaselines compares the recommended algorithm with the §1/§7
// alternatives on the portfolio query: plan quality (rt metric) and search
// cost (plans-considered metric).
func BenchmarkBaselines(b *testing.B) {
	algs := []paropt.Algorithm{
		paropt.PartialOrderDP, paropt.TwoPhase,
		paropt.IterativeImprovement, paropt.SimulatedAnnealing,
	}
	for _, alg := range algs {
		b.Run(alg.String(), func(b *testing.B) {
			cat, q := workload.Portfolio(4)
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var p *paropt.Plan
			for i := 0; i < b.N; i++ {
				p, err = paropt.Optimize(opt, paropt.Run{Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.RT(), "rt")
			b.ReportMetric(float64(p.Stats.PlansConsidered), "plans-considered")
		})
	}
}

// BenchmarkSchedulingPolicies measures simulated response time under the
// preemptive (paper assumption) and non-preemptive schedulers.
func BenchmarkSchedulingPolicies(b *testing.B) {
	cat, q := workload.Portfolio(4)
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []sim.Policy{sim.ProcessorSharing, sim.RunToCompletion} {
		b.Run(pol.String(), func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res, err = sim.SimulateWithPolicy(p.Op, opt.Mod, pol)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.RT, "sim-rt")
		})
	}
}

// BenchmarkMemoryBound measures the cost of tightening the §7 memory
// constraint: response time of the best plan that fits.
func BenchmarkMemoryBound(b *testing.B) {
	cat, q := workload.Portfolio(4)
	free, err := paropt.NewOptimizer(cat, q, paropt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pFree, err := paropt.Optimize(free, paropt.Run{})
	if err != nil {
		b.Fatal(err)
	}
	peak := free.Mod.MemoryEstimate(pFree.Op).PeakPages
	for _, frac := range []float64{1, 0.5, 0.25} {
		limit := int64(float64(peak) * frac)
		if limit < 1 {
			limit = 1
		}
		b.Run(fmt.Sprintf("limit=%dpages", limit), func(b *testing.B) {
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{MemoryPages: limit})
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
			b.ReportMetric(p.RT(), "rt")
			b.ReportMetric(float64(opt.Mod.MemoryEstimate(p.Op).PeakPages), "peak-pages")
		})
	}
}

// BenchmarkTPCH optimizes the three TPC-H-like queries end to end.
func BenchmarkTPCH(b *testing.B) {
	cat, queries := workload.TPCHLike(4, 1)
	for _, q := range queries {
		b.Run(q.Name, func(b *testing.B) {
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
				Machine: machine.Config{CPUs: 4, Disks: 4, Networks: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			var p *paropt.Plan
			for i := 0; i < b.N; i++ {
				p, err = paropt.Optimize(opt, paropt.Run{Bound: paropt.ThroughputDegradation{K: 2}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.RT(), "rt")
			b.ReportMetric(p.Work(), "work")
		})
	}
}

// BenchmarkCalibratedVsDefault optimizes with default vs a synthetic
// "slow-CPU" parameterization, showing parameter sensitivity (the reason
// internal/calibrate exists).
func BenchmarkCalibratedVsDefault(b *testing.B) {
	cat, q := workload.Portfolio(4)
	slow := paropt.DefaultCostParams()
	slow.CPUTuple *= 20
	slow.CPUCompare *= 20
	for _, tc := range []struct {
		name   string
		params paropt.CostParams
	}{
		{"default", paropt.DefaultCostParams()},
		{"cpu-bound", slow},
	} {
		b.Run(tc.name, func(b *testing.B) {
			params := tc.params
			opt, err := paropt.NewOptimizer(cat, q, paropt.Config{Params: &params})
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
			b.ReportMetric(p.RT(), "rt")
		})
	}
}

// BenchmarkSkewImbalance quantifies the §5.2.1 footnote — the uniformity
// assumption "loses some ability to model hot spots" — as the max/mean
// partition-size ratio of a hash-partitioned join key under rising Zipf
// skew. The cost model predicts an even split (ratio 1); the real ratio is
// the factor by which a cloned join's slowest clone exceeds the model.
func BenchmarkSkewImbalance(b *testing.B) {
	for _, skew := range []float64{0, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("zipf=%g", skew), func(b *testing.B) {
			cat := paropt.NewCatalog()
			rel := cat.MustAddRelation(paropt.Relation{
				Name:    "S",
				Columns: []paropt.Column{{Name: "k", NDV: 10_000, Width: 8, Skew: skew}},
				Card:    100_000,
				Pages:   1_000,
			})
			tab := storage.Generate(rel, 5)
			var imb float64
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				imb, err = engine.PartitionImbalance(tab, "k", 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(imb, "max-over-mean")
		})
	}
}
