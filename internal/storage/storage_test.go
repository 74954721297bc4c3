package storage

import (
	"testing"

	"paropt/internal/catalog"
)

func demoRel(t *testing.T) *catalog.Relation {
	t.Helper()
	cat := catalog.New()
	return cat.MustAddRelation(catalog.Relation{
		Name: "R",
		Columns: []catalog.Column{
			{Name: "id", NDV: 1000, Width: 8},
			{Name: "fk", NDV: 50, Width: 8},
		},
		Card:  1000,
		Pages: 10,
	})
}

func TestGenerate(t *testing.T) {
	rel := demoRel(t)
	tab := Generate(rel, 1)
	if tab.NumRows() != 1000 {
		t.Fatalf("rows = %d, want 1000", tab.NumRows())
	}
	if tab.ColIndex("id") != 0 || tab.ColIndex("fk") != 1 || tab.ColIndex("zz") != -1 {
		t.Error("ColIndex wrong")
	}
	for _, row := range tab.Rows {
		if row[0] < 0 || row[0] >= 1000 {
			t.Fatalf("id %d out of NDV domain", row[0])
		}
		if row[1] < 0 || row[1] >= 50 {
			t.Fatalf("fk %d out of NDV domain", row[1])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	rel := demoRel(t)
	a := Generate(rel, 7)
	b := Generate(rel, 7)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("same seed must generate identical data")
			}
		}
	}
	c := Generate(rel, 8)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != c.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateSorted(t *testing.T) {
	cat := catalog.New()
	rel := cat.MustAddRelation(catalog.Relation{
		Name:     "S",
		Columns:  []catalog.Column{{Name: "k", NDV: 100, Width: 8}},
		Card:     500,
		Pages:    5,
		SortedBy: "k",
	})
	tab := Generate(rel, 3)
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i-1][0] > tab.Rows[i][0] {
			t.Fatal("SortedBy relation must be generated in key order")
		}
	}
}

func TestOrderedIndex(t *testing.T) {
	rel := demoRel(t)
	tab := Generate(rel, 2)
	ix, err := BuildOrderedIndex(tab, "id")
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	ix.Scan(func(key int64, rowPos int) bool {
		if key < prev {
			t.Fatal("ordered index must scan ascending")
		}
		if tab.Rows[rowPos][0] != key {
			t.Fatal("key/row mismatch")
		}
		prev = key
		count++
		return true
	})
	if count != tab.NumRows() {
		t.Errorf("scan visited %d rows", count)
	}
	// Early stop.
	n := 0
	ix.Scan(func(int64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Exact lookup agrees with a linear scan.
	key := tab.Rows[0][0]
	want := 0
	for _, r := range tab.Rows {
		if r[0] == key {
			want++
		}
	}
	if got := len(ix.Lookup(key)); got != want {
		t.Errorf("Lookup(%d) = %d rows, want %d", key, got, want)
	}
	if got := ix.Lookup(-99); got != nil {
		t.Errorf("Lookup(missing) = %v", got)
	}
	if _, err := BuildOrderedIndex(tab, "zz"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNewDatabase(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "A", Columns: []catalog.Column{{Name: "x", NDV: 10}}, Card: 100, Pages: 1,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "B", Columns: []catalog.Column{{Name: "y", NDV: 10}}, Card: 200, Pages: 2,
	})
	db := NewDatabase(cat, 5)
	a, ok := db.Table("A")
	if !ok || a.NumRows() != 100 {
		t.Fatal("table A wrong")
	}
	if _, ok := db.Table("C"); ok {
		t.Error("unknown table should report false")
	}
}
