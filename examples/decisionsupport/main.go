// Decisionsupport runs the paper's motivating scenario end to end: a stock
// portfolio manager's star query, optimized two ways — the traditional
// work optimizer vs the response-time optimizer — across machine sizes,
// with both plans validated on the machine simulator. It shows the paper's
// thesis: on a parallel machine, minimizing response time (at bounded extra
// work) beats the throughput-optimal plan on latency.
package main

import (
	"fmt"
	"log"

	"paropt"
)

func main() {
	fmt.Println("Decision support: portfolio-by-sector star query (§1 scenario)")
	fmt.Println()
	fmt.Printf("%8s | %12s %12s | %12s %12s | %8s %8s\n",
		"machine", "workOpt RT", "rtOpt RT", "workOpt W", "rtOpt W", "simWork", "simRT")

	for _, size := range []struct{ cpus, disks int }{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16},
	} {
		cat, q := paropt.PortfolioWorkload(size.disks)
		mc := paropt.MachineConfig{CPUs: size.cpus, Disks: size.disks, Networks: 1}

		cfg := paropt.Config{Machine: mc}
		work := paropt.Run{Algorithm: paropt.WorkDP}
		rt := paropt.Run{Algorithm: paropt.PartialOrderDP, Bound: paropt.ThroughputDegradation{K: 2}}
		workOpt, simW := optimize(cat, q, cfg, work)
		rtOpt, simR := optimize(cat, q, cfg, rt)

		fmt.Printf("%3dc/%2dd | %12.1f %12.1f | %12.1f %12.1f | %8.1f %8.1f\n",
			size.cpus, size.disks,
			workOpt.RT(), rtOpt.RT(), workOpt.Work(), rtOpt.Work(), simW, simR)
	}
	fmt.Println()
	fmt.Println("Columns: model response time and work of the work-optimal vs the")
	fmt.Println("RT-optimal (k=2) plan, then simulator-measured response times.")
	fmt.Println("The RT optimizer's advantage grows with the machine: it buys")
	fmt.Println("latency with bounded extra work, the §2 dual objective.")
}

// optimize returns the plan r chooses and its simulated response time.
func optimize(cat *paropt.Catalog, q *paropt.Query, cfg paropt.Config, r paropt.Run) (*paropt.Plan, float64) {
	opt, err := paropt.NewOptimizer(cat, q, cfg)
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, r)
	if err != nil {
		log.Fatal(err)
	}
	res, err := paropt.Simulate(p.Op, opt.Mod)
	if err != nil {
		log.Fatal(err)
	}
	return p, res.RT
}
