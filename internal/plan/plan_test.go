package plan

import (
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/query"
)

// fixture builds a 3-relation chain query R-S-T with indexes on S and T.
func fixture(t *testing.T) (*catalog.Catalog, *query.Query, *Estimator) {
	t.Helper()
	cat := catalog.New()
	add := func(name string, card int64, sortedBy string) {
		cat.MustAddRelation(catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", NDV: card, Width: 8},
				{Name: "fk", NDV: card / 10, Width: 8},
			},
			Card:     card,
			Pages:    card / 50,
			SortedBy: sortedBy,
		})
	}
	add("R", 10000, "")
	add("S", 2000, "id")
	add("T", 500, "")
	cat.MustAddIndex(catalog.Index{Name: "S_fk", Relation: "S", Columns: []string{"fk"}, Clustered: true, Disk: 1})
	cat.MustAddIndex(catalog.Index{Name: "T_fk", Relation: "T", Columns: []string{"fk"}, Disk: 2})
	q := &query.Query{
		Name:      "chain3",
		Relations: []string{"R", "S", "T"},
		Joins: []query.JoinPredicate{
			{Left: query.ColumnRef{Relation: "R", Column: "id"}, Right: query.ColumnRef{Relation: "S", Column: "fk"}},
			{Left: query.ColumnRef{Relation: "S", Column: "id"}, Right: query.ColumnRef{Relation: "T", Column: "fk"}},
		},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	return cat, q, NewEstimator(cat, q)
}

func TestLeafSeqScan(t *testing.T) {
	_, _, e := fixture(t)
	n, err := e.Leaf("R", SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsLeaf() || n.Card != 10000 || n.Width != 16 {
		t.Fatalf("leaf = %+v", n)
	}
	if !n.Order.Empty() {
		t.Errorf("unsorted heap should have empty order, got %v", n.Order)
	}
	if n.Rels != query.NewRelSet(0) {
		t.Errorf("Rels = %v", n.Rels)
	}
}

func TestLeafSortedHeapOrder(t *testing.T) {
	_, _, e := fixture(t)
	n, err := e.Leaf("S", SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	// S.id is equivalent to T.fk; the class representative is S.id.
	want := query.ColumnRef{Relation: "S", Column: "id"}
	if len(n.Order) != 1 || n.Order[0] != want {
		t.Fatalf("order = %v, want [%v]", n.Order, want)
	}
}

func TestLeafIndexScan(t *testing.T) {
	cat, _, e := fixture(t)
	idx, _ := cat.Index("S_fk")
	n, err := e.Leaf("S", IndexScan, idx)
	if err != nil {
		t.Fatal(err)
	}
	// S.fk is in the class of R.id; representative is R.id.
	want := query.ColumnRef{Relation: "R", Column: "id"}
	if len(n.Order) != 1 || n.Order[0] != want {
		t.Fatalf("index order = %v, want [%v]", n.Order, want)
	}
}

func TestLeafErrors(t *testing.T) {
	cat, _, e := fixture(t)
	if _, err := e.Leaf("X", SeqScan, nil); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := e.Leaf("R", IndexScan, nil); err == nil {
		t.Error("index scan without index should error")
	}
	idx, _ := cat.Index("S_fk")
	if _, err := e.Leaf("R", IndexScan, idx); err == nil {
		t.Error("index on wrong relation should error")
	}
}

func TestLeafSelectionReducesCard(t *testing.T) {
	cat, q, _ := fixture(t)
	q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "R", Column: "fk"}}}
	e := NewEstimator(cat, q)
	n, err := e.Leaf("R", SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	// R.fk NDV = 1000, so card = 10000/1000 = 10.
	if n.Card != 10 {
		t.Fatalf("selected card = %d, want 10", n.Card)
	}
}

func TestJoinProperties(t *testing.T) {
	_, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	s, _ := e.Leaf("S", SeqScan, nil)
	j, err := e.Join(r, s, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Preds) != 1 {
		t.Fatalf("preds = %v", j.Preds)
	}
	// sel = 1/max(NDV(R.id)=10000, NDV(S.fk)=200) = 1e-4; card = 1e4*2e3*1e-4 = 2000.
	if j.Card != 2000 {
		t.Fatalf("join card = %d, want 2000", j.Card)
	}
	if j.Width != 32 {
		t.Fatalf("join width = %d, want 32", j.Width)
	}
	if !j.Order.Empty() {
		t.Error("hash join output must be unordered")
	}
	if j.Rels != query.NewRelSet(0, 1) {
		t.Errorf("Rels = %v", j.Rels)
	}
}

func TestJoinOrderPropagation(t *testing.T) {
	_, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	s, _ := e.Leaf("S", SeqScan, nil) // ordered by class rep of S.id
	nl, err := e.Join(s, r, NestedLoops)
	if err != nil {
		t.Fatal(err)
	}
	if !nl.Order.Equal(s.Order) {
		t.Errorf("NL should preserve outer order: got %v want %v", nl.Order, s.Order)
	}
	sm, err := e.Join(r, s, SortMerge)
	if err != nil {
		t.Fatal(err)
	}
	want := query.ColumnRef{Relation: "R", Column: "id"}
	if len(sm.Order) != 1 || sm.Order[0] != want {
		t.Errorf("SM order = %v, want [%v]", sm.Order, want)
	}
}

func TestJoinOverlapError(t *testing.T) {
	_, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	s, _ := e.Leaf("S", SeqScan, nil)
	rs, _ := e.Join(r, s, HashJoin)
	if _, err := e.Join(rs, s, HashJoin); err == nil {
		t.Error("overlapping operands should error")
	}
}

func TestCrossProduct(t *testing.T) {
	_, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	tt, _ := e.Leaf("T", SeqScan, nil)
	x, err := e.Join(r, tt, NestedLoops) // R and T not directly joined
	if err != nil {
		t.Fatal(err)
	}
	if !CrossProduct(x) {
		t.Error("R×T should be a cross product")
	}
	if x.Card != 10000*500 {
		t.Errorf("cross card = %d", x.Card)
	}
	if CrossProduct(r) {
		t.Error("a leaf is not a cross product")
	}
}

func TestTreeShapeHelpers(t *testing.T) {
	_, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	s, _ := e.Leaf("S", SeqScan, nil)
	tt, _ := e.Leaf("T", SeqScan, nil)
	rs, _ := e.Join(r, s, HashJoin)
	rst, _ := e.Join(rs, tt, NestedLoops)
	if !rst.LeftDeep() {
		t.Error("rst should be left-deep")
	}
	st, _ := e.Join(s, tt, HashJoin)
	bushyR, _ := e.Leaf("R", SeqScan, nil)
	bushy, _ := e.Join(bushyR, st, HashJoin)
	if bushy.LeftDeep() {
		t.Error("R⨝(S⨝T) is not left-deep")
	}
	if rst.Depth() != 2 || bushy.Depth() != 2 {
		t.Errorf("depths = %d, %d", rst.Depth(), bushy.Depth())
	}
	if rst.NumJoins() != 2 {
		t.Errorf("NumJoins = %d", rst.NumJoins())
	}
	leaves := rst.Leaves()
	if len(leaves) != 3 || leaves[0].Relation != "R" || leaves[2].Relation != "T" {
		t.Errorf("Leaves = %v", leaves)
	}
}

func TestStringRendering(t *testing.T) {
	cat, _, e := fixture(t)
	r, _ := e.Leaf("R", SeqScan, nil)
	idx, _ := cat.Index("S_fk")
	s, _ := e.Leaf("S", IndexScan, idx)
	j, _ := e.Join(r, s, SortMerge)
	if got := j.String(); got != "SM(scan(R), indexScan(S_fk))" {
		t.Errorf("String = %q", got)
	}
	ind := j.Indent()
	for _, want := range []string{"sort-merge", "scan R", "via S_fk", "card="} {
		if !strings.Contains(ind, want) {
			t.Errorf("Indent missing %q:\n%s", want, ind)
		}
	}
}

func TestOrderingRelations(t *testing.T) {
	a := query.ColumnRef{Relation: "R", Column: "a"}
	b := query.ColumnRef{Relation: "R", Column: "b"}
	c := query.ColumnRef{Relation: "R", Column: "c"}
	o := Ordering{a, c}
	p := Ordering{a, b, c}
	if !o.Subsequence(p) {
		t.Error("a,c should be a subsequence of a,b,c")
	}
	if p.Subsequence(o) {
		t.Error("a,b,c is not a subsequence of a,c")
	}
	if !(Ordering{}).Subsequence(o) {
		t.Error("empty is a subsequence of anything")
	}
	if !(Ordering{a}).Prefix(p) || (Ordering{b}).Prefix(p) {
		t.Error("Prefix wrong")
	}
	if !o.Equal(Ordering{a, c}) || o.Equal(p) {
		t.Error("Equal wrong")
	}
	if got := p.String(); got != "R.a,R.b,R.c" {
		t.Errorf("String = %q", got)
	}
	if got := Ordering(nil).String(); got != "-" {
		t.Errorf("empty String = %q", got)
	}
}

func TestMergeOrderAndNDV(t *testing.T) {
	_, q, e := fixture(t)
	preds := q.Joins[:1] // R.id = S.fk
	for _, col := range []query.ColumnRef{preds[0].Left, preds[0].Right} {
		sorted := &Node{Order: e.CanonOrdering(Ordering{col})}
		if !e.MergeSorted(sorted, preds, true) || !e.MergeSorted(sorted, preds, false) {
			t.Errorf("merge orders should canonicalize equal: %v satisfies one side, not both", col)
		}
	}
	if e.MergeSorted(&Node{Order: Ordering{preds[0].Left}}, nil, true) || e.MergeSorted(&Node{}, preds, true) {
		t.Error("no preds or no order, no merge order")
	}
	if got := e.JoinColumnNDV(preds, true); got != 10000 {
		t.Errorf("NDV(R.id) = %d", got)
	}
	if got := e.JoinColumnNDV(preds, false); got != 200 {
		t.Errorf("NDV(S.fk) = %d", got)
	}
	if got := e.JoinColumnNDV(nil, true); got != 1 {
		t.Errorf("NDV(no preds) = %d", got)
	}
}

func TestMethodAndAccessStrings(t *testing.T) {
	if NestedLoops.String() != "nested-loops" || SortMerge.String() != "sort-merge" || HashJoin.String() != "hash-join" {
		t.Error("JoinMethod strings wrong")
	}
	if JoinMethod(9).String() != "join-method(9)" {
		t.Error("unknown method string wrong")
	}
	if SeqScan.String() != "scan" || IndexScan.String() != "indexScan" {
		t.Error("Access strings wrong")
	}
	if Access(9).String() != "access(9)" {
		t.Error("unknown access string wrong")
	}
}

func TestCanonFallback(t *testing.T) {
	_, _, e := fixture(t)
	outside := query.ColumnRef{Relation: "Z", Column: "zz"}
	if got := e.Canon(outside); got != outside {
		t.Errorf("Canon of unknown column = %v", got)
	}
	if got := e.CanonOrdering(nil); got != nil {
		t.Errorf("CanonOrdering(nil) = %v", got)
	}
}
