// Package storage is the in-memory storage substrate for the execution
// engine: tables of int64-valued tuples generated deterministically from
// catalog statistics, plus hash and ordered indexes. It exists so the
// optimizer's plans can actually be executed (package engine) and their
// results cross-checked for semantic equivalence.
package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"paropt/internal/catalog"
)

// Row is one tuple; values are int64 (keys, foreign keys, encoded payloads).
type Row []int64

// Table holds a base relation's data.
type Table struct {
	// Rel is the catalog entry the table instantiates.
	Rel *catalog.Relation
	// Cols maps column name to its position in every Row.
	Cols map[string]int
	// Rows is the tuple data.
	Rows []Row

	// columnar caches the transposed layout for vectorized scans; built
	// lazily on first use. Racing builders may each transpose once — both
	// produce identical slabs and either published pointer is correct.
	columnar atomic.Pointer[[][]int64]
}

// Columns returns the table transposed into columnar slabs — Columns()[c][r]
// is column c of row r — computing and caching the transposition on first
// call. The engine's vectorized scan aliases these slabs directly, so callers
// must treat them as read-only.
func (t *Table) Columns() [][]int64 {
	if p := t.columnar.Load(); p != nil {
		return *p
	}
	width := len(t.Rel.Columns)
	cols := make([][]int64, width)
	backing := make([]int64, width*len(t.Rows))
	for c := range cols {
		cols[c] = backing[c*len(t.Rows) : (c+1)*len(t.Rows) : (c+1)*len(t.Rows)]
		for r, row := range t.Rows {
			cols[c][r] = row[c]
		}
	}
	t.columnar.Store(&cols)
	return cols
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.Cols[name]; ok {
		return i
	}
	return -1
}

// NumRows is the table's cardinality.
func (t *Table) NumRows() int { return len(t.Rows) }

// Generate materializes a relation: column c of row i is drawn uniformly
// from [0, NDV(c)), so the realized join selectivity between two columns
// matches the System R estimate 1/max(NDV). Deterministic for a given seed.
func Generate(rel *catalog.Relation, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed ^ int64(len(rel.Name))<<32 ^ hashName(rel.Name)))
	t := &Table{
		Rel:  rel,
		Cols: make(map[string]int, len(rel.Columns)),
		Rows: make([]Row, rel.Card),
	}
	for i, c := range rel.Columns {
		t.Cols[c.Name] = i
	}
	zipfs := make([]*rand.Zipf, len(rel.Columns))
	for j, c := range rel.Columns {
		if c.Skew > 0 && c.NDV > 1 {
			zipfs[j] = rand.NewZipf(rng, 1+c.Skew, 1, uint64(c.NDV-1))
		}
	}
	for i := range t.Rows {
		row := make(Row, len(rel.Columns))
		for j, c := range rel.Columns {
			if zipfs[j] != nil {
				row[j] = int64(zipfs[j].Uint64())
			} else {
				row[j] = rng.Int63n(c.NDV)
			}
		}
		t.Rows[i] = row
	}
	if rel.SortedBy != "" {
		pos := t.Cols[rel.SortedBy]
		sort.SliceStable(t.Rows, func(a, b int) bool { return t.Rows[a][pos] < t.Rows[b][pos] })
	}
	return t
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// OrderedIndex is a sorted (key, row-position) list supporting range scans.
type OrderedIndex struct {
	// Col is the indexed column position.
	Col    int
	keys   []int64
	rowPos []int
}

// BuildOrderedIndex indexes the table on the named column in sorted order.
func BuildOrderedIndex(t *Table, column string) (*OrderedIndex, error) {
	pos := t.ColIndex(column)
	if pos < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %s", t.Rel.Name, column)
	}
	ix := &OrderedIndex{Col: pos}
	order := make([]int, len(t.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return t.Rows[order[a]][pos] < t.Rows[order[b]][pos]
	})
	ix.keys = make([]int64, len(order))
	ix.rowPos = order
	for i, r := range order {
		ix.keys[i] = t.Rows[r][pos]
	}
	return ix, nil
}

// Scan visits row positions in key order; fn returning false stops early.
func (ix *OrderedIndex) Scan(fn func(key int64, rowPos int) bool) {
	for i, k := range ix.keys {
		if !fn(k, ix.rowPos[i]) {
			return
		}
	}
}

// Lookup returns positions of rows with the exact key, in key order.
func (ix *OrderedIndex) Lookup(v int64) []int {
	lo := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= v })
	var out []int
	for i := lo; i < len(ix.keys) && ix.keys[i] == v; i++ {
		out = append(out, ix.rowPos[i])
	}
	return out
}

// Database is a set of generated tables keyed by relation name.
type Database struct {
	Tables map[string]*Table
}

// NewDatabase generates every relation of the catalog with a shared seed.
func NewDatabase(cat *catalog.Catalog, seed int64) *Database {
	db := &Database{Tables: make(map[string]*Table)}
	for _, name := range cat.RelationNames() {
		rel := cat.MustRelation(name)
		db.Tables[name] = Generate(rel, seed)
	}
	return db
}

// Table returns the named table and whether it exists.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.Tables[name]
	return t, ok
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
