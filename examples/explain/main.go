// Explain demonstrates the optimizer's observability surface: a traced
// partial-order DP run, the chosen plan's per-operator cost breakdown, its
// Graphviz rendering, a simulated execution timeline, and a grouped
// aggregation of the real result — everything a user needs to see *why* a
// plan was chosen and what it does.
package main

import (
	"fmt"
	"log"

	"paropt"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/search"
)

func main() {
	cat, q := paropt.PortfolioWorkloadSmall(4)
	q.Selections = nil // keep the demo result non-empty

	// 1. Trace the search itself.
	fmt.Println("=== search trace (partial-order DP) ===")
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	model := cost.NewModel(cat, m, est, cost.DefaultParams())
	s := search.New(search.Options{
		Model:              model,
		Expand:             optree.DefaultExpandOptions(),
		Annotate:           optree.DefaultAnnotateOptions(),
		AvoidCrossProducts: true,
	})
	res, err := s.PODPLeftDeep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Stats.Table(res.Best))

	// 2. Per-operator cost breakdown of the winner.
	fmt.Println("\n=== cost breakdown ===")
	op, err := optree.Expand(res.Best.Node, est, optree.DefaultExpandOptions())
	if err != nil {
		log.Fatal(err)
	}
	optree.Annotate(op, m, est, optree.DefaultAnnotateOptions())
	fmt.Print(model.BreakdownTable(op))

	// 3. Graphviz rendering (pipe to `dot -Tpng`).
	fmt.Println("\n=== graphviz ===")
	fmt.Print(op.Dot(q.Name))

	// 4. Simulated execution timeline.
	fmt.Println("\n=== simulated timeline ===")
	sres, err := paropt.Simulate(op, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sres.Timeline(56))

	// 5. Run it for real and aggregate by sector (the §1 scenario's
	// "graph the results by category").
	fmt.Println("\n=== executed + grouped by sector ===")
	db := paropt.NewDatabase(cat, 7)
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := opt.Execute(p, db, 2)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := rows.GroupBy(
		[]paropt.ColumnRef{{Relation: "sectors", Column: "name"}},
		paropt.ColumnRef{Relation: "trades", Column: "amount"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d result rows in %d sector groups; first groups:\n", rows.Len(), len(groups))
	for i, g := range groups {
		if i == 5 {
			break
		}
		fmt.Printf("  sector %v: count=%d sum(amount)=%d\n", g.Key, g.Count, g.Sum)
	}
}
