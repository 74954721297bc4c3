// Package storage is the in-memory storage substrate for the execution
// engine: tables of int64 columns generated deterministically from catalog
// statistics, plus the key order an ordered index scans. It exists so the
// optimizer's plans can actually be executed (package engine) and their
// results cross-checked for semantic equivalence.
package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"paropt/internal/catalog"
)

// Row is one tuple; values are int64 (keys, foreign keys, encoded payloads).
type Row []int64

// Table holds a base relation's data as column slabs: Columns()[c][r] is
// column c of row r.
type Table struct {
	// Rel is the catalog entry the table instantiates.
	Rel *catalog.Relation
	// Cols maps column name to its position in Columns() (and in every Row).
	Cols map[string]int
	// Rows is a row-major copy of the columns for row-at-a-time oracles
	// (the benchmark's result check, tests). It is nil until Database.Table
	// builds it; nothing that serves a request reads it, so a served table
	// is its columns alone.
	Rows []Row

	cols     [][]int64
	rowsOnce sync.Once
}

// NewTable is the table of rel whose column c is cols[c], aliased, not
// copied; every column must hold the same number of rows.
func NewTable(rel *catalog.Relation, cols [][]int64) *Table {
	t := &Table{Rel: rel, Cols: make(map[string]int, len(rel.Columns)), cols: cols}
	for i, c := range rel.Columns {
		t.Cols[c.Name] = i
	}
	return t
}

// Columns returns the table's columnar slabs — Columns()[c][r] is column c
// of row r. The engine's vectorized scan aliases them directly, so callers
// must treat them as read-only.
func (t *Table) Columns() [][]int64 { return t.cols }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.Cols[name]; ok {
		return i
	}
	return -1
}

// NumRows is the table's cardinality.
func (t *Table) NumRows() int { return len(t.cols[0]) }

// Generate materializes a relation: column c of row i is drawn uniformly
// from [0, NDV(c)), so the realized join selectivity between two columns
// matches the System R estimate 1/max(NDV). Values are drawn row by row into
// one pointer-free slab holding column c at [c·n, (c+1)·n). A SortedBy
// relation's rows are then stably ordered on the key. Deterministic for a
// given seed.
func Generate(rel *catalog.Relation, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed ^ int64(len(rel.Name))<<32 ^ hashName(rel.Name)))
	n, w := int(rel.Card), len(rel.Columns)
	slab := make([]int64, w*n)
	cols := make([][]int64, w)
	for c := range cols {
		cols[c] = slab[c*n : (c+1)*n : (c+1)*n]
	}
	zipfs := make([]*rand.Zipf, w)
	for j, c := range rel.Columns {
		if c.Skew > 0 && c.NDV > 1 {
			zipfs[j] = rand.NewZipf(rng, 1+c.Skew, 1, uint64(c.NDV-1))
		}
	}
	for i := 0; i < n; i++ {
		for j, c := range rel.Columns {
			if zipfs[j] != nil {
				cols[j][i] = int64(zipfs[j].Uint64())
			} else {
				cols[j][i] = rng.Int63n(c.NDV)
			}
		}
	}
	t := NewTable(rel, cols)
	if rel.SortedBy != "" {
		// Permute one column at a time through a single scratch column.
		order, tmp := stableOrder(cols[t.Cols[rel.SortedBy]]), make([]int64, n)
		for _, col := range cols {
			for i, r := range order {
				tmp[i] = col[r]
			}
			copy(col, tmp)
		}
	}
	return t
}

// stableOrder is the row positions of keys in key order, ties in row order.
func stableOrder(keys []int64) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return order
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// KeyOrder is the table's row positions in ascending order of the named
// column, rows with equal keys in table order: what an ordered index on the
// column scans.
func KeyOrder(t *Table, column string) ([]int32, error) {
	pos := t.ColIndex(column)
	if pos < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %s", t.Rel.Name, column)
	}
	return stableOrder(t.Columns()[pos]), nil
}

// Database is a set of generated tables keyed by relation name.
type Database struct {
	Tables map[string]*Table
}

// NewDatabase generates every relation of the catalog with a shared seed.
func NewDatabase(cat *catalog.Catalog, seed int64) *Database {
	db := &Database{Tables: make(map[string]*Table)}
	for _, name := range cat.RelationNames() {
		db.Tables[name] = Generate(cat.MustRelation(name), seed)
	}
	return db
}

// Relation returns the named table and whether it exists, as its columns
// alone: what every served path reads.
func (db *Database) Relation(name string) (*Table, bool) {
	t, ok := db.Tables[name]
	return t, ok
}

// Table returns the named table and whether it exists, with its Rows view
// built — once per table, safe for concurrent callers, every row a window of
// one row-major slab — for a row-at-a-time oracle. Served code calls
// Relation instead.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.Tables[name]
	if !ok {
		return nil, false
	}
	t.rowsOnce.Do(func() {
		w := len(t.cols)
		flat := make([]int64, t.NumRows()*w)
		t.Rows = make([]Row, t.NumRows())
		for r := range t.Rows {
			t.Rows[r] = flat[r*w : (r+1)*w : (r+1)*w]
			for c, col := range t.cols {
				t.Rows[r][c] = col[r]
			}
		}
	})
	return t, true
}

// maxDataRows bounds the synthetic rows one catalog version may make anyone
// generate: the daemon for an analyze, a worker for its placement shards.
const maxDataRows = 4 << 20

// CheckDataRows refuses a catalog whose relations hold more base rows than a
// daemon generates for an analyze or a worker for its placement shards — an
// admission guard, since generation happens inline. The daemon checks it
// before an analyze or a placement install, a worker on every placement
// snapshot it fetches.
func CheckDataRows(cat *catalog.Catalog) error {
	var rows int64
	for _, name := range cat.RelationNames() {
		// Clamping each term keeps the sum from overflowing before it is refused.
		if rows += min(cat.MustRelation(name).Card, maxDataRows+1); rows > maxDataRows {
			return fmt.Errorf("catalog has more than %d base rows", int64(maxDataRows))
		}
	}
	return nil
}
