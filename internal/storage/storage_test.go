package storage

import (
	"reflect"
	"slices"
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
	cols := tab.Columns()
	if len(cols) != 2 || len(cols[0]) != 1000 || len(cols[1]) != 1000 {
		t.Fatalf("columns %d of %d/%d rows, want 2 of 1000", len(cols), len(cols[0]), len(cols[1]))
	}
	for r := range tab.NumRows() {
		if v := cols[0][r]; v < 0 || v >= 1000 {
			t.Fatalf("id %d out of NDV domain", v)
		}
		if v := cols[1][r]; v < 0 || v >= 50 {
			t.Fatalf("fk %d out of NDV domain", v)
		}
	}
	if tab.Rows != nil {
		t.Error("Generate built a row view")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	rel := demoRel(t)
	a := Generate(rel, 7).Columns()
	b := Generate(rel, 7).Columns()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate identical data")
	}
	if c := Generate(rel, 8).Columns(); reflect.DeepEqual(a, c) {
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
	if k := Generate(rel, 3).Columns()[0]; !slices.IsSorted(k) {
		t.Fatal("SortedBy relation must be generated in key order")
	}
}

// TestOrderedIndex: KeyOrder visits every row once, ascending on the key,
// rows with equal keys in table order (the fk column repeats each key ≈ 20
// times).
func TestOrderedIndex(t *testing.T) {
	tab := Generate(demoRel(t), 2)
	fks := tab.Columns()[1]
	order, err := KeyOrder(tab, "fk")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != tab.NumRows() {
		t.Fatalf("order holds %d rows, table %d", len(order), tab.NumRows())
	}
	seen := make([]bool, tab.NumRows())
	for i, r := range order {
		if seen[r] {
			t.Fatalf("row %d visited twice", r)
		}
		seen[r] = true
		if i == 0 {
			continue
		}
		prev := order[i-1]
		if fks[prev] > fks[r] || fks[prev] == fks[r] && prev > r {
			t.Fatalf("positions %d, %d: rows %d (key %d) before %d (key %d)", i-1, i, prev, fks[prev], r, fks[r])
		}
	}
	if _, err := KeyOrder(tab, "zz"); err == nil {
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
