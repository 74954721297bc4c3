// Parallelexec runs an optimized plan on the real goroutine execution
// engine at increasing parallelism degrees, verifying that every degree
// produces the identical result multiset and reporting wall-clock speedup —
// the cloning (intra-operator parallelism) of §4.1 made concrete.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"paropt"
)

func main() {
	cat, q := paropt.PortfolioWorkloadSmall(4)
	// Scale the fact table up a bit so parallelism has something to chew,
	// and drop the point selections so the join output is substantial.
	trades := cat.MustRelation("trades")
	trades.Card = 400_000
	trades.Pages = 4_000
	q.Selections = nil

	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
		Machine: paropt.MachineConfig{CPUs: runtime.NumCPU(), Disks: 4, Networks: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s\n", p.Tree)
	fmt.Printf("model: rt=%.1f work=%.1f\n\n", p.RT(), p.Work())

	fmt.Println("generating data...")
	db := paropt.NewDatabase(cat, 7)

	fmt.Printf("%8s %12s %10s %10s\n", "degree", "wall-clock", "rows", "speedup")
	var base time.Duration
	var want uint64
	for _, deg := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := opt.Execute(p, db, deg)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if deg == 1 {
			base = elapsed
			want = res.Fingerprint()
		} else if res.Fingerprint() != want {
			log.Fatalf("degree %d produced a different result!", deg)
		}
		fmt.Printf("%8d %12s %10d %9.2fx\n",
			deg, elapsed.Round(time.Millisecond), res.Len(),
			float64(base)/float64(elapsed))
	}
	fmt.Println("\nAll degrees produced identical result multisets (fingerprint-checked).")
	if runtime.NumCPU() == 1 {
		fmt.Println("(single-core host: expect speedup ≈ 1; run on a multi-core box to see it grow)")
	}
}
