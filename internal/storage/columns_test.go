package storage

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"paropt/internal/catalog"
)

// rowMajorGenerate is the row-at-a-time generator Generate replaced, kept as
// its reference: one heap row per tuple, values drawn row by row, a SortedBy
// relation ordered by sort.SliceStable over the rows.
func rowMajorGenerate(rel *catalog.Relation, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed ^ int64(len(rel.Name))<<32 ^ hashName(rel.Name)))
	rows := make([]Row, rel.Card)
	zipfs := make([]*rand.Zipf, len(rel.Columns))
	for j, c := range rel.Columns {
		if c.Skew > 0 && c.NDV > 1 {
			zipfs[j] = rand.NewZipf(rng, 1+c.Skew, 1, uint64(c.NDV-1))
		}
	}
	for i := range rows {
		row := make(Row, len(rel.Columns))
		for j, c := range rel.Columns {
			if zipfs[j] != nil {
				row[j] = int64(zipfs[j].Uint64())
			} else {
				row[j] = rng.Int63n(c.NDV)
			}
		}
		rows[i] = row
	}
	if rel.SortedBy != "" {
		pos := -1
		for j, c := range rel.Columns {
			if c.Name == rel.SortedBy {
				pos = j
			}
		}
		sort.SliceStable(rows, func(a, b int) bool { return rows[a][pos] < rows[b][pos] })
	}
	return rows
}

// generatorRelations are a plain relation, a Zipf-skewed one, and SortedBy
// relations whose keys repeat (so the stable order of ties is what decides
// the row order), one of them sorted on a skewed column.
func generatorRelations(t testing.TB, card int64) []*catalog.Relation {
	t.Helper()
	cat := catalog.New()
	return []*catalog.Relation{
		cat.MustAddRelation(catalog.Relation{Name: "plain", Card: card, Pages: 1, Columns: []catalog.Column{
			{Name: "id", NDV: card, Width: 8}, {Name: "fk", NDV: 50, Width: 8}, {Name: "pay", NDV: 1 << 40, Width: 8}}}),
		cat.MustAddRelation(catalog.Relation{Name: "zipf", Card: card, Pages: 1, Columns: []catalog.Column{
			{Name: "hot", NDV: 500, Width: 8, Skew: 1.2}, {Name: "u", NDV: 90, Width: 8}}}),
		cat.MustAddRelation(catalog.Relation{Name: "sorted", Card: card, Pages: 1, SortedBy: "k", Columns: []catalog.Column{
			{Name: "v", NDV: card, Width: 8}, {Name: "k", NDV: 17, Width: 8}, {Name: "w", NDV: 3, Width: 8}}}),
		cat.MustAddRelation(catalog.Relation{Name: "sortedzipf", Card: card, Pages: 1, SortedBy: "s", Columns: []catalog.Column{
			{Name: "s", NDV: 40, Width: 8, Skew: 0.8}, {Name: "v", NDV: 1000, Width: 8}}}),
	}
}

// TestGenerateMatchesRowMajor: the column slab holds bit for bit what the
// row-major generator drew, in the same row order, for plain, Zipf and
// SortedBy-with-ties relations over several seeds.
func TestGenerateMatchesRowMajor(t *testing.T) {
	for _, rel := range generatorRelations(t, 3000) {
		for seed := int64(1); seed <= 4; seed++ {
			want := rowMajorGenerate(rel, seed)
			tab := Generate(rel, seed)
			cols := tab.Columns()
			if tab.NumRows() != len(want) || len(cols) != len(rel.Columns) {
				t.Fatalf("%s seed %d: %d rows × %d columns, want %d × %d", rel.Name, seed, tab.NumRows(), len(cols), len(want), len(rel.Columns))
			}
			for r, row := range want {
				for c, v := range row {
					if cols[c][r] != v {
						t.Fatalf("%s seed %d: row %d column %d = %d, row-major generator drew %d", rel.Name, seed, r, c, cols[c][r], v)
					}
				}
			}
		}
	}
}

// TestGenerateAllocatesOneSlab: generation is one pointer-free slab plus a
// constant — as many allocations at 100 k rows as at 1 k, and no more than
// 8 bytes a value beyond a fixed overhead. A SortedBy relation adds only its
// transient row order and one scratch column (12 bytes a row).
func TestGenerateAllocatesOneSlab(t *testing.T) {
	const fixed = 64 << 10 // the RNG source (≈ 5 KB), Zipf state, headers, the name map
	measure := func(rel *catalog.Relation) (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Generate(rel, 5)
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(2, func() { Generate(rel, 5) }), after.TotalAlloc - before.TotalAlloc
	}
	small, large := generatorRelations(t, 1000), generatorRelations(t, 100_000)
	for i := range small {
		a1, _ := measure(small[i])
		a2, bytes := measure(large[i])
		rel := large[i]
		if a1 != a2 {
			t.Errorf("%s: %.0f allocations at 1 k rows, %.0f at 100 k", rel.Name, a1, a2)
		}
		n := uint64(rel.Card)
		bound := 8*uint64(len(rel.Columns))*n + fixed
		if rel.SortedBy != "" {
			bound += 12 * n
		}
		if bytes > bound {
			t.Errorf("%s: %d bytes for %d rows × %d columns, want ≤ %d", rel.Name, bytes, n, len(rel.Columns), bound)
		}
	}
}

// TestTableBuildsRowViewOnce: Relation leaves a table its columns alone;
// concurrent Table calls build one row view between them, and it holds the
// columns' values row by row.
func TestTableBuildsRowViewOnce(t *testing.T) {
	cat := catalog.New()
	for _, rel := range generatorRelations(t, 2000) {
		cat.MustAddRelation(*rel)
	}
	db := NewDatabase(cat, 9)
	for _, name := range cat.RelationNames() {
		if tab, ok := db.Relation(name); !ok || tab.Rows != nil {
			t.Fatalf("Relation(%s): ok %v, row view %v", name, ok, tab.Rows != nil)
		}
	}
	var wg sync.WaitGroup
	views := make([][]Row, 8)
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, _ := db.Table("sorted")
			views[g] = tab.Rows
		}()
	}
	wg.Wait()
	for g := range views {
		if &views[g][0] != &views[0][0] {
			t.Fatalf("caller %d got another row view", g)
		}
	}
	tab, _ := db.Relation("sorted")
	cols := tab.Columns()
	want := make([]Row, tab.NumRows())
	for r := range want {
		for _, col := range cols {
			want[r] = append(want[r], col[r])
		}
	}
	if !reflect.DeepEqual(views[0], want) {
		t.Fatal("row view differs from the columns")
	}
	if plain, _ := db.Relation("plain"); plain.Rows != nil {
		t.Error("Table on one relation built another's view")
	}
}
