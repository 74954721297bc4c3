// Sqlquery drives the optimizer entirely from text: a schema written in the
// DDL grammar and a query written in the SQL-ish SELECT grammar (see
// internal/parser), optimized under a work bound and then executed on
// generated data — the path an ad-hoc reporting tool would take.
package main

import (
	"fmt"
	"log"

	"paropt"
	"paropt/internal/parser"
)

const schema = `
# A small order-management schema across four disks.
relation orders card=400000 pages=4000 disk=0
column orders.order_id ndv=400000 width=8
column orders.cust_id ndv=30000 width=8
column orders.part_id ndv=8000 width=8
column orders.qty ndv=50 width=8

relation customers card=30000 pages=300 disk=1 sorted=cust_id
column customers.cust_id ndv=30000 width=8
column customers.region ndv=25 width=8

relation parts card=8000 pages=80 disk=2
column parts.part_id ndv=8000 width=8
column parts.category ndv=40 width=8

index customers_pk on customers(cust_id) clustered disk=1
index parts_pk on parts(part_id) disk=3
`

const sql = `
SELECT parts.category, orders.qty
FROM orders, customers, parts
WHERE orders.cust_id = customers.cust_id
  AND orders.part_id = parts.part_id
  AND customers.region = 7
`

func main() {
	cat, err := parser.ParseSchema(schema)
	if err != nil {
		log.Fatal(err)
	}
	q, err := parser.ParseQuery(sql, cat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed: %s\n\n", q)

	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
		Machine: paropt.MachineConfig{CPUs: 4, Disks: 4, Networks: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := paropt.Optimize(opt, paropt.Run{Bound: paropt.ThroughputDegradation{K: 2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt.Explain(p))

	// Execute on generated data and aggregate by category — everything
	// after the SPJ core is plain post-processing.
	db := paropt.NewDatabase(cat, 3)
	rows, err := opt.Execute(p, db, 4)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := rows.GroupBy(
		[]paropt.ColumnRef{{Relation: "parts", Column: "category"}},
		paropt.ColumnRef{Relation: "orders", Column: "qty"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted: %d rows, %d categories; top categories by quantity:\n",
		rows.Len(), len(groups))
	shown := 0
	for _, g := range groups {
		if shown == 5 {
			break
		}
		fmt.Printf("  category %d: orders=%d sum(qty)=%d\n", g.Key[0], g.Count, g.Sum)
		shown++
	}
}
