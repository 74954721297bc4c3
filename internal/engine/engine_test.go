package engine

import (
	"runtime"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// rig builds a small chain-query world with generated data.
func rig(t testing.TB, cards ...int64) (*Executor, *plan.Estimator) {
	t.Helper()
	cat := catalog.New()
	var rels []string
	for i, card := range cards {
		name := "R" + string(rune('1'+i))
		rels = append(rels, name)
		cat.MustAddRelation(catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", NDV: maxI(card/2, 1), Width: 8},
				{Name: "fk", NDV: maxI(card/4, 1), Width: 8},
			},
			Card:  card,
			Pages: maxI(card/50, 1),
		})
	}
	q := &query.Query{Name: "eng", Relations: rels}
	for i := 0; i+1 < len(rels); i++ {
		q.Joins = append(q.Joins, query.JoinPredicate{
			Left:  query.ColumnRef{Relation: rels[i], Column: "id"},
			Right: query.ColumnRef{Relation: rels[i+1], Column: "fk"},
		})
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 42)
	est := plan.NewEstimator(cat, q)
	return &Executor{DB: db, Q: q, Parallel: 1}, est
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func leaf(t testing.TB, est *plan.Estimator, rel string) *plan.Node {
	t.Helper()
	n, err := est.Leaf(rel, plan.SeqScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func join(t testing.TB, est *plan.Estimator, l, r *plan.Node, m plan.JoinMethod) *plan.Node {
	t.Helper()
	n, err := est.Join(l, r, m)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJoinMethodsAgreeWithReference: every join method must produce exactly
// the reference (brute force) result multiset.
func TestJoinMethodsAgreeWithReference(t *testing.T) {
	e, est := rig(t, 300, 200)
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("reference result empty; fixture too sparse")
	}
	for _, m := range plan.AllJoinMethods {
		p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), m)
		got, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got.Len() != ref.Len() {
			t.Errorf("%v: %d rows, want %d", m, got.Len(), ref.Len())
		}
		if got.Fingerprint() != ref.Fingerprint() {
			t.Errorf("%v: fingerprint mismatch with reference", m)
		}
	}
}

// TestAllPlanShapesSameResult: the central semantic invariant — every legal
// plan for a query computes the same result. Exercised over join orders,
// methods, and shapes for a 3-relation chain.
func TestAllPlanShapesSameResult(t *testing.T) {
	e, est := rig(t, 200, 150, 100)
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()

	shapes := []func() *plan.Node{
		func() *plan.Node { // (R1⋈R2)⋈R3 left-deep
			return join(t, est, join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin),
				leaf(t, est, "R3"), plan.SortMerge)
		},
		func() *plan.Node { // (R2⋈R1)⋈R3 swapped
			return join(t, est, join(t, est, leaf(t, est, "R2"), leaf(t, est, "R1"), plan.SortMerge),
				leaf(t, est, "R3"), plan.NestedLoops)
		},
		func() *plan.Node { // R1⋈(R2⋈R3) bushy/right-deep
			return join(t, est, leaf(t, est, "R1"),
				join(t, est, leaf(t, est, "R2"), leaf(t, est, "R3"), plan.HashJoin), plan.HashJoin)
		},
		func() *plan.Node { // (R3⋈R2)⋈R1
			return join(t, est, join(t, est, leaf(t, est, "R3"), leaf(t, est, "R2"), plan.NestedLoops),
				leaf(t, est, "R1"), plan.HashJoin)
		},
	}
	for i, mk := range shapes {
		res, err := e.Execute(mk())
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if res.Len() != ref.Len() || res.Fingerprint() != want {
			t.Errorf("shape %d: %d rows fp %x, want %d rows fp %x",
				i, res.Len(), res.Fingerprint(), ref.Len(), want)
		}
	}
}

// TestParallelDegreesAgree: partitioned parallel execution returns exactly
// the serial result at every degree.
func TestParallelDegreesAgree(t *testing.T) {
	e, est := rig(t, 1000, 800)
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	var serial *Resultset
	for _, degree := range []int{1, 2, 4, 8} {
		e.Parallel = degree
		r, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = r
		}
		if r.Fingerprint() != serial.Fingerprint() || r.Len() != serial.Len() {
			t.Errorf("degree %d: result differs from serial", degree)
		}
	}
}

func TestParallelMergeAndNL(t *testing.T) {
	e, est := rig(t, 600, 500)
	for _, m := range []plan.JoinMethod{plan.SortMerge, plan.NestedLoops} {
		p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), m)
		e.Parallel = 1
		serial, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		e.Parallel = 4
		par, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Fingerprint() != par.Fingerprint() {
			t.Errorf("%v: parallel result differs from serial", m)
		}
	}
	e.Parallel = 1
}

func TestSelectionsApplied(t *testing.T) {
	e, est := rig(t, 400, 300)
	e.Q.Selections = []query.Selection{{
		Column: query.ColumnRef{Relation: "R1", Column: "fk"},
		Value:  3,
	}}
	// Rebuild the estimator-independent reference.
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	got, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Error("selection result differs from reference")
	}
	// Every surviving row must satisfy the selection.
	fkPos := got.Schema.IndexOf(query.ColumnRef{Relation: "R1", Column: "fk"})
	if fkPos < 0 {
		t.Fatal("schema lacks R1.fk")
	}
	for _, row := range rowsOf(got) {
		if row[fkPos] != 3 {
			t.Fatalf("row with R1.fk = %d escaped the filter", row[fkPos])
		}
	}
}

func TestProjection(t *testing.T) {
	e, est := rig(t, 200, 150)
	e.Q.Projection = []query.ColumnRef{{Relation: "R2", Column: "id"}}
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.SortMerge)
	got, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 1 || got.Schema[0] != (query.ColumnRef{Relation: "R2", Column: "id"}) {
		t.Fatalf("projected schema = %v", got.Schema)
	}
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Error("projection result differs from reference")
	}
}

func TestIndexScanDeliversSameRows(t *testing.T) {
	e, est := rig(t, 300, 200)
	ixReg, err := est.Cat.AddIndex(catalog.Index{Name: "R2_fk", Relation: "R2", Columns: []string{"fk"}})
	if err != nil {
		t.Fatal(err)
	}
	seqLeaf := leaf(t, est, "R2")
	ixLeaf, err := est.Leaf("R2", plan.IndexScan, ixReg)
	if err != nil {
		t.Fatal(err)
	}
	pSeq := join(t, est, leaf(t, est, "R1"), seqLeaf, plan.HashJoin)
	pIx := join(t, est, leaf(t, est, "R1"), ixLeaf, plan.HashJoin)
	a, err := e.Execute(pSeq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Execute(pIx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("index scan changed the result")
	}
}

// TestIndexScanSortsOnce: the key order an index scan walks is the table's,
// sorted by the first scan; a second scan of the same table allocates no
// n-sized order.
func TestIndexScanSortsOnce(t *testing.T) {
	const n = 20_000
	e, _ := rig(t, 300, n)
	ix := &catalog.Index{Name: "R2_fk", Relation: "R2", Columns: []string{"fk"}}
	scan := func() {
		op, _, err := e.scan("R2", ix)
		if err != nil {
			t.Fatal(err)
		}
		op.Close()
	}
	scan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const scans = 10
	for i := 0; i < scans; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / scans; per >= 4*n {
		t.Errorf("a warm index scan allocates %d bytes; an order of %d rows is %d", per, n, 4*n)
	}
}

func TestCrossProduct(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "A", Columns: []catalog.Column{{Name: "x", NDV: 5}}, Card: 10, Pages: 1,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "B", Columns: []catalog.Column{{Name: "y", NDV: 5}}, Card: 7, Pages: 1,
	})
	q := &query.Query{Relations: []string{"A", "B"}} // no predicates
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 9)
	e := &Executor{DB: db, Q: q, Parallel: 1}
	est := plan.NewEstimator(cat, q)
	p := join(t, est, leaf(t, est, "A"), leaf(t, est, "B"), plan.NestedLoops)
	got, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 70 {
		t.Fatalf("cross product rows = %d, want 70", got.Len())
	}
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Error("cross product differs from reference")
	}
}

func TestExecuteErrors(t *testing.T) {
	e, est := rig(t, 50, 50)
	if _, err := e.Execute(nil); err == nil {
		t.Error("nil plan should error")
	}
	ghost := &plan.Node{Relation: "ghost"}
	if _, err := e.Execute(ghost); err == nil {
		t.Error("unknown relation should error")
	}
	res := &Resultset{Schema: Schema{{Relation: "R1", Column: "id"}}}
	if _, err := res.Project([]query.ColumnRef{{Relation: "Z", Column: "z"}}); err == nil {
		t.Error("bad projection should error")
	}
	_ = est
}

func TestFingerprintOrderIndependence(t *testing.T) {
	s := Schema{{Relation: "R", Column: "a"}, {Relation: "R", Column: "b"}}
	a := resultOf(s, []storage.Row{{1, 2}, {3, 4}})
	b := resultOf(s, []storage.Row{{3, 4}, {1, 2}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must be row-order independent")
	}
	// Column order independence after normalization.
	sRev := Schema{{Relation: "R", Column: "b"}, {Relation: "R", Column: "a"}}
	c := resultOf(sRev, []storage.Row{{2, 1}, {4, 3}})
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("fingerprint must normalize column order")
	}
	// Different multiset must differ.
	d := resultOf(s, []storage.Row{{1, 2}, {1, 2}})
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("different multisets should not collide")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{{Relation: "R", Column: "a"}}
	if s.IndexOf(query.ColumnRef{Relation: "R", Column: "a"}) != 0 {
		t.Error("IndexOf wrong")
	}
	if s.IndexOf(query.ColumnRef{Relation: "R", Column: "z"}) != -1 {
		t.Error("IndexOf missing wrong")
	}
}
