// Tradeoff sweeps the §2 work bounds and prints the response-time / work
// Pareto frontier: how much latency each increment of allowed extra work
// buys, under both bounding policies (throughput degradation and
// cost–benefit ratio), plus the search-space reduction the bound provides
// ("work bounds ... in fact cut down the search space", §6.4).
package main

import (
	"fmt"
	"log"

	"paropt"
)

func main() {
	cat, q := paropt.PortfolioWorkload(8)
	mc := paropt.MachineConfig{CPUs: 8, Disks: 8, Networks: 1}

	cfg := paropt.Config{Machine: mc}
	baselinePlan := mustOptimize(cat, q, cfg, paropt.Run{Algorithm: paropt.WorkDP})
	wo, to := baselinePlan.Work(), baselinePlan.RT()
	fmt.Printf("work-optimal baseline: Wo=%.1f To=%.1f\n\n", wo, to)

	fmt.Println("Throughput-degradation bound Wp ≤ k·Wo:")
	fmt.Printf("%6s %12s %12s %10s %10s %12s\n", "k", "RT", "work", "RT/To", "W/Wo", "considered")
	for _, k := range []float64{1.0, 1.1, 1.25, 1.5, 2, 3, 5, 0} {
		r := paropt.Run{Algorithm: paropt.PartialOrderDP}
		label := "∞"
		if k > 0 {
			r.Bound = paropt.ThroughputDegradation{K: k}
			label = fmt.Sprintf("%.2f", k)
		}
		p := mustOptimize(cat, q, cfg, r)
		fmt.Printf("%6s %12.1f %12.1f %10.2f %10.2f %12d\n",
			label, p.RT(), p.Work(), p.RT()/to, p.Work()/wo, p.Stats.PlansConsidered)
	}

	fmt.Println("\nCost-benefit bound (extra work ≤ k × seconds saved):")
	fmt.Printf("%6s %12s %12s %10s %10s\n", "k", "RT", "work", "RT/To", "W/Wo")
	for _, k := range []float64{0.5, 1, 2, 5, 20} {
		p := mustOptimize(cat, q, cfg, paropt.Run{Algorithm: paropt.PartialOrderDP, Bound: paropt.CostBenefit{K: k}})
		fmt.Printf("%6.1f %12.1f %12.1f %10.2f %10.2f\n",
			k, p.RT(), p.Work(), p.RT()/to, p.Work()/wo)
	}
	fmt.Println("\nReading the frontier: k=1 forbids extra work (the plan is the")
	fmt.Println("baseline); growing k admits plans that spend more total work to")
	fmt.Println("finish sooner, until the unbounded RT optimum is reached. Tighter")
	fmt.Println("bounds also prune the search (smaller 'considered').")
}

func mustOptimize(cat *paropt.Catalog, q *paropt.Query, cfg paropt.Config, r paropt.Run) *paropt.Plan {
	opt, err := paropt.NewOptimizer(cat, q, cfg)
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, r)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
