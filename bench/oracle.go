package main

import (
	"paropt/internal/catalog"
	"paropt/internal/storage"
)

// newOracleDB generates the rows the service's analyze database holds:
// storage generation is a pure function of (catalog, seed).
func newOracleDB(cat *catalog.Catalog) *storage.Database {
	return storage.NewDatabase(cat, dataSeed)
}

// oracleCount is the independent answer to "how many rows does this
// template return": a left-to-right map hash join over the generated tables
// that shares no code with internal/engine. Intermediate rows are kept as
// one row index per joined relation.
func oracleCount(db *storage.Database, t *template, lit int64) int64 {
	tables := make([]*storage.Table, len(t.rels))
	pos := map[string]int{}
	for i, name := range t.rels {
		tables[i], _ = db.Table(name)
		pos[name] = i
	}
	keep := func(rel int, row storage.Row) bool {
		return t.rels[rel] != t.selRel || row[tables[rel].ColIndex(t.selCol)] == lit
	}
	var inter [][]int32
	for r, row := range tables[0].Rows {
		if keep(0, row) {
			inter = append(inter, []int32{int32(r)})
		}
	}
	for next := 1; next < len(t.rels); next++ {
		// The predicates linking relation next to the ones already joined;
		// the first one is hashed, the others (cycles, cliques) filter.
		type link struct{ prevRel, prevCol, nextCol int }
		var links []link
		for _, j := range t.joins {
			l, r := pos[j[0]], pos[j[2]]
			lc, rc := tables[l].ColIndex(j[1]), tables[r].ColIndex(j[3])
			switch {
			case r == next && l < next:
				links = append(links, link{l, lc, rc})
			case l == next && r < next:
				links = append(links, link{r, rc, lc})
			}
		}
		build := map[int64][]int32{}
		for r, row := range tables[next].Rows {
			if keep(next, row) {
				k := row[links[0].nextCol]
				build[k] = append(build[k], int32(r))
			}
		}
		var out [][]int32
		for _, left := range inter {
			k := tables[links[0].prevRel].Rows[left[links[0].prevRel]][links[0].prevCol]
		match:
			for _, r := range build[k] {
				for _, l := range links[1:] {
					if tables[l.prevRel].Rows[left[l.prevRel]][l.prevCol] != tables[next].Rows[r][l.nextCol] {
						continue match
					}
				}
				out = append(out, append(append(make([]int32, 0, next+1), left...), r))
			}
		}
		inter = out
	}
	return int64(len(inter))
}

// checkRows compares the root cardinality every (template, literal)
// produced during the run against the independent join; each mismatch fails
// every request of that pair.
func checkRows(c *checker, db *storage.Database) {
	for k, got := range c.rows {
		if want := oracleCount(db, &c.in.templates[k.tmpl], k.lit); want != got.rows {
			c.failed += got.n - 1
			c.fail("template %d literal %d: served plan returned %d rows, independent join %d", k.tmpl, k.lit, got.rows, want)
		}
	}
}
