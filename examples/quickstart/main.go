// Quickstart: build a schema, pose an SPJ query, optimize it for response
// time under a work bound, and inspect the chosen parallel plan.
package main

import (
	"fmt"
	"log"

	"paropt"
)

func main() {
	// A small warehouse schema spread over four disks.
	cat := paropt.NewCatalog()
	cat.MustAddRelation(paropt.Relation{
		Name: "orders",
		Columns: []paropt.Column{
			{Name: "order_id", NDV: 500_000, Width: 8},
			{Name: "cust_id", NDV: 40_000, Width: 8},
			{Name: "part_id", NDV: 10_000, Width: 8},
		},
		Card: 500_000, Pages: 5_000, Disk: 0,
	})
	cat.MustAddRelation(paropt.Relation{
		Name: "customers",
		Columns: []paropt.Column{
			{Name: "cust_id", NDV: 40_000, Width: 8},
			{Name: "region", NDV: 25, Width: 8},
		},
		Card: 40_000, Pages: 400, Disk: 1,
	})
	cat.MustAddRelation(paropt.Relation{
		Name: "parts",
		Columns: []paropt.Column{
			{Name: "part_id", NDV: 10_000, Width: 8},
			{Name: "supplier", NDV: 500, Width: 8},
		},
		Card: 10_000, Pages: 100, Disk: 2,
	})
	cat.MustAddIndex(paropt.Index{
		Name: "customers_pk", Relation: "customers", Columns: []string{"cust_id"},
		Clustered: true, Disk: 1,
	})

	// SELECT * FROM orders, customers, parts
	// WHERE orders.cust_id = customers.cust_id
	//   AND orders.part_id = parts.part_id AND customers.region = 7.
	col := func(r, c string) paropt.ColumnRef { return paropt.ColumnRef{Relation: r, Column: c} }
	q := &paropt.Query{
		Name:      "orders-by-region",
		Relations: []string{"orders", "customers", "parts"},
		Joins: []paropt.JoinPredicate{
			{Left: col("orders", "cust_id"), Right: col("customers", "cust_id")},
			{Left: col("orders", "part_id"), Right: col("parts", "part_id")},
		},
		Selections: []paropt.Selection{{Column: col("customers", "region"), Value: 7}},
	}

	// Minimize response time, allowing at most 1.5× the optimal work —
	// the paper's §2 formulation with a throughput-degradation bound.
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
		Machine: paropt.MachineConfig{CPUs: 4, Disks: 4, Networks: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{Bound: paropt.ThroughputDegradation{K: 1.5}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt.Explain(p))

	// Validate the prediction on the machine simulator.
	res, err := paropt.Simulate(p.Op, opt.Mod)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulator: rt=%.1f (model said %.1f), utilization %.0f%%\n",
		res.RT, p.RT(), 100*res.Utilization())

	// And actually run it on generated data with 4-way parallelism.
	db := paropt.NewDatabase(cat, 1)
	rows, err := opt.Execute(p, db, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed for real: %d result rows\n", rows.Len())
}
