// Package workload provides ready-made catalogs and queries shaped by the
// paper's motivation: decision-support databases (a stock-portfolio star
// schema for the §1 scenario) and TPC-like relation size mixes.
package workload

import (
	"fmt"
	"os"

	"paropt/internal/catalog"
	"paropt/internal/parser"
	"paropt/internal/query"
)

// DefaultCatalog is the default-catalog selection the daemon and the
// in-process replay share: a schema DDL file when one is named, else a
// built-in workload's catalog, else (name "none" or empty) nil.
func DefaultCatalog(schemaFile, name string, disks int) (*catalog.Catalog, error) {
	if schemaFile != "" {
		src, err := os.ReadFile(schemaFile)
		if err != nil {
			return nil, err
		}
		return parser.ParseSchema(string(src))
	}
	switch name {
	case "portfolio":
		cat, _ := Portfolio(disks)
		return cat, nil
	case "tpch":
		cat, _ := TPCHLike(disks, 1)
		return cat, nil
	case "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (portfolio, tpch or none)", name)
	}
}

// Portfolio builds the §1 scenario: "a system for stock portfolio managers
// ... running a non-trivial query at the click of a button" — a star schema
// with a large trades fact table joined to stocks, sectors, accounts and
// dates dimensions, spread over the given number of disks.
func Portfolio(disks int) (*catalog.Catalog, *query.Query) {
	if disks < 1 {
		disks = 1
	}
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "trades",
		Columns: []catalog.Column{
			{Name: "trade_id", NDV: 2_000_000, Width: 8},
			{Name: "stock_id", NDV: 20_000, Width: 8},
			{Name: "account_id", NDV: 50_000, Width: 8},
			{Name: "date_id", NDV: 2_000, Width: 8},
			{Name: "amount", NDV: 100_000, Width: 8},
		},
		Card:  2_000_000,
		Pages: 20_000,
		Disk:  0,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "stocks",
		Columns: []catalog.Column{
			{Name: "stock_id", NDV: 20_000, Width: 8},
			{Name: "sector_id", NDV: 100, Width: 8},
			{Name: "listed", NDV: 50, Width: 8},
		},
		Card:  20_000,
		Pages: 200,
		Disk:  1 % disks,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "sectors",
		Columns: []catalog.Column{
			{Name: "sector_id", NDV: 100, Width: 8},
			{Name: "name", NDV: 100, Width: 32},
		},
		Card:  100,
		Pages: 1,
		Disk:  2 % disks,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "accounts",
		Columns: []catalog.Column{
			{Name: "account_id", NDV: 50_000, Width: 8},
			{Name: "manager", NDV: 200, Width: 8},
		},
		Card:  50_000,
		Pages: 500,
		Disk:  3 % disks,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "dates",
		Columns: []catalog.Column{
			{Name: "date_id", NDV: 2_000, Width: 8},
			{Name: "quarter", NDV: 8, Width: 8},
		},
		Card:  2_000,
		Pages: 20,
		Disk:  0,
	})
	cat.MustAddIndex(catalog.Index{
		Name: "trades_stock", Relation: "trades", Columns: []string{"stock_id"},
		Clustered: true, Disk: 0,
	})
	cat.MustAddIndex(catalog.Index{
		Name: "stocks_pk", Relation: "stocks", Columns: []string{"stock_id"},
		Clustered: true, Disk: 1 % disks,
	})
	cat.MustAddIndex(catalog.Index{
		Name: "accounts_pk", Relation: "accounts", Columns: []string{"account_id"},
		Disk: 3 % disks,
	})

	col := func(rel, c string) query.ColumnRef { return query.ColumnRef{Relation: rel, Column: c} }
	q := &query.Query{
		Name:      "portfolio-by-sector",
		Relations: []string{"trades", "stocks", "sectors", "accounts", "dates"},
		Joins: []query.JoinPredicate{
			{Left: col("trades", "stock_id"), Right: col("stocks", "stock_id")},
			{Left: col("stocks", "sector_id"), Right: col("sectors", "sector_id")},
			{Left: col("trades", "account_id"), Right: col("accounts", "account_id")},
			{Left: col("trades", "date_id"), Right: col("dates", "date_id")},
		},
		Selections: []query.Selection{
			{Column: col("dates", "quarter"), Value: 3},
			{Column: col("accounts", "manager"), Value: 17},
		},
		Projection: []query.ColumnRef{
			col("sectors", "name"), col("trades", "amount"),
		},
	}
	return cat, q
}

// PortfolioSmall is Portfolio scaled down ~1000× so it can be generated and
// executed by the in-memory engine in tests and examples. Foreign-key
// domains are aligned with the referenced dimension's scaled cardinality so
// the generated data joins productively.
func PortfolioSmall(disks int) (*catalog.Catalog, *query.Query) {
	cat, q := Portfolio(disks)
	scaledCard := map[string]int64{}
	for _, name := range cat.RelationNames() {
		scaledCard[name] = cat.MustRelation(name).Card/1000 + 10
	}
	// FK column → the dimension whose key domain it must share.
	fkTarget := map[string]string{
		"stock_id": "stocks", "account_id": "accounts",
		"date_id": "dates", "sector_id": "sectors",
	}
	scaled := catalog.New()
	for _, name := range cat.RelationNames() {
		rel := *cat.MustRelation(name)
		rel.Card = scaledCard[name]
		rel.Pages = rel.Pages/1000 + 1
		cols := make([]catalog.Column, len(rel.Columns))
		copy(cols, rel.Columns)
		for i := range cols {
			if dim, ok := fkTarget[cols[i].Name]; ok {
				cols[i].NDV = scaledCard[dim]
			}
			if cols[i].NDV > rel.Card {
				cols[i].NDV = rel.Card
			}
		}
		rel.Columns = cols
		scaled.MustAddRelation(rel)
	}
	return scaled, q
}
