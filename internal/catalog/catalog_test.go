package catalog

import (
	"testing"
	"testing/quick"
)

func twoColRelation(name string, card int64) Relation {
	return Relation{
		Name: name,
		Columns: []Column{
			{Name: "a", NDV: card, Width: 4},
			{Name: "b", NDV: card / 10, Width: 8},
		},
		Card:  card,
		Pages: card / 100,
	}
}

func TestAddRelation(t *testing.T) {
	c := New()
	r, err := c.AddRelation(twoColRelation("R", 1000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "R" || r.Card != 1000 {
		t.Fatalf("unexpected relation %+v", r)
	}
	got, ok := c.Relation("R")
	if !ok || got != r {
		t.Fatal("Relation lookup failed")
	}
	if c.NumRelations() != 1 {
		t.Fatalf("NumRelations = %d, want 1", c.NumRelations())
	}
}

func TestAddRelationErrors(t *testing.T) {
	c := New()
	cases := []struct {
		name string
		rel  Relation
	}{
		{"empty name", Relation{Columns: []Column{{Name: "a"}}, Card: 1}},
		{"no columns", Relation{Name: "R", Card: 1}},
		{"unnamed column", Relation{Name: "R", Columns: []Column{{}}, Card: 1}},
		{"duplicate column", Relation{Name: "R", Columns: []Column{{Name: "a"}, {Name: "a"}}, Card: 1}},
		{"bad sortedBy", Relation{Name: "R", Columns: []Column{{Name: "a"}}, Card: 1, SortedBy: "zz"}},
	}
	for _, tc := range cases {
		if _, err := c.AddRelation(tc.rel); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	c.MustAddRelation(twoColRelation("R", 10))
	if _, err := c.AddRelation(twoColRelation("R", 10)); err == nil {
		t.Error("duplicate relation: expected error")
	}
}

func TestStatClamping(t *testing.T) {
	c := New()
	r := c.MustAddRelation(Relation{
		Name:    "R",
		Columns: []Column{{Name: "a", NDV: 9999}, {Name: "b", NDV: -5, Width: -1}},
		Card:    100,
		Pages:   0,
	})
	if got := r.MustColumn("a").NDV; got != 100 {
		t.Errorf("NDV clamped to card: got %d, want 100", got)
	}
	if got := r.MustColumn("b").NDV; got != 1 {
		t.Errorf("negative NDV clamped to 1: got %d", got)
	}
	if got := r.MustColumn("b").Width; got != 4 {
		t.Errorf("non-positive width defaulted: got %d, want 4", got)
	}
	if r.Pages != 1 {
		t.Errorf("Pages clamped to 1, got %d", r.Pages)
	}
}

func TestColumnLookup(t *testing.T) {
	c := New()
	r := c.MustAddRelation(twoColRelation("R", 1000))
	if _, ok := r.Column("nope"); ok {
		t.Error("Column(nope) should report false")
	}
	if !r.HasColumn("a") || r.HasColumn("zz") {
		t.Error("HasColumn wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn on missing column should panic")
		}
	}()
	r.MustColumn("zz")
}

func TestTupleWidth(t *testing.T) {
	c := New()
	r := c.MustAddRelation(twoColRelation("R", 1000))
	if got := r.TupleWidth(); got != 12 {
		t.Errorf("TupleWidth = %d, want 12", got)
	}
}

func TestAddIndex(t *testing.T) {
	c := New()
	c.MustAddRelation(twoColRelation("R", 100000))
	ix, err := c.AddIndex(Index{Name: "R_a", Relation: "R", Columns: []string{"a"}, Clustered: true, Disk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Pages != 100000/400+1 {
		t.Errorf("default index pages = %d", ix.Pages)
	}
	got, ok := c.Index("R_a")
	if !ok || got != ix {
		t.Fatal("Index lookup failed")
	}
	on := c.IndexesOn("R")
	if len(on) != 1 || on[0] != ix {
		t.Fatalf("IndexesOn = %v", on)
	}
}

func TestAddIndexErrors(t *testing.T) {
	c := New()
	c.MustAddRelation(twoColRelation("R", 100))
	cases := []Index{
		{Relation: "R", Columns: []string{"a"}},              // no name
		{Name: "i1", Relation: "S", Columns: []string{"a"}},  // unknown relation
		{Name: "i2", Relation: "R"},                          // no columns
		{Name: "i3", Relation: "R", Columns: []string{"zz"}}, // unknown column
	}
	for i, ix := range cases {
		if _, err := c.AddIndex(ix); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	c.MustAddIndex(Index{Name: "dup", Relation: "R", Columns: []string{"a"}})
	if _, err := c.AddIndex(Index{Name: "dup", Relation: "R", Columns: []string{"b"}}); err == nil {
		t.Error("duplicate index name: expected error")
	}
}

func TestIndexesOnSorted(t *testing.T) {
	c := New()
	c.MustAddRelation(twoColRelation("R", 100))
	c.MustAddIndex(Index{Name: "zz", Relation: "R", Columns: []string{"a"}})
	c.MustAddIndex(Index{Name: "aa", Relation: "R", Columns: []string{"b"}})
	on := c.IndexesOn("R")
	if len(on) != 2 || on[0].Name != "aa" || on[1].Name != "zz" {
		t.Fatalf("IndexesOn not sorted: %v, %v", on[0].Name, on[1].Name)
	}
	if got := c.IndexesOn("S"); len(got) != 0 {
		t.Errorf("IndexesOn unknown relation = %v, want empty", got)
	}
}

func TestRelationNamesSorted(t *testing.T) {
	c := New()
	c.MustAddRelation(twoColRelation("B", 10))
	c.MustAddRelation(twoColRelation("A", 10))
	names := c.RelationNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("RelationNames = %v", names)
	}
}

func TestMustRelationPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MustRelation("nope")
}

func TestPagesForTuples(t *testing.T) {
	c := New() // 8192-byte pages
	if got := c.PagesForTuples(0, 8); got != 1 {
		t.Errorf("zero tuples = %d pages, want 1", got)
	}
	if got := c.PagesForTuples(1024, 8); got != 1 {
		t.Errorf("1024×8B = %d pages, want 1", got)
	}
	if got := c.PagesForTuples(1025, 8); got != 2 {
		t.Errorf("1025×8B = %d pages, want 2", got)
	}
	if got := c.PagesForTuples(10, 100000); got != 10 {
		t.Errorf("wide tuples: %d pages, want 10 (one per tuple)", got)
	}
}

func TestJoinSelectivity(t *testing.T) {
	a := Column{NDV: 100}
	b := Column{NDV: 1000}
	if got := JoinSelectivity(a, b); got != 0.001 {
		t.Errorf("JoinSelectivity = %v, want 0.001", got)
	}
	if got := JoinSelectivity(Column{}, Column{}); got != 1 {
		t.Errorf("degenerate NDV selectivity = %v, want 1", got)
	}
}

func TestEqSelectivity(t *testing.T) {
	if got := EqSelectivity(Column{NDV: 50}); got != 0.02 {
		t.Errorf("EqSelectivity = %v, want 0.02", got)
	}
	if got := EqSelectivity(Column{NDV: 0}); got != 1 {
		t.Errorf("EqSelectivity(0) = %v, want 1", got)
	}
}

func TestJoinCardFloor(t *testing.T) {
	if got := JoinCard(10, 10, 0.0001); got != 1 {
		t.Errorf("JoinCard floor = %d, want 1", got)
	}
	if got := JoinCard(100, 200, 0.01); got != 200 {
		t.Errorf("JoinCard = %d, want 200", got)
	}
}

// Property: selectivities are always in (0, 1] and JoinCard is monotone in
// its selectivity argument.
func TestQuickSelectivityBounds(t *testing.T) {
	f := func(n1, n2 int32, c1, c2 int32) bool {
		a := Column{NDV: int64(n1)}
		b := Column{NDV: int64(n2)}
		s := JoinSelectivity(a, b)
		if s <= 0 || s > 1 {
			return false
		}
		lc, rc := int64(c1%100000), int64(c2%100000)
		if lc < 0 {
			lc = -lc
		}
		if rc < 0 {
			rc = -rc
		}
		return JoinCard(lc, rc, s) <= JoinCard(lc, rc, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
