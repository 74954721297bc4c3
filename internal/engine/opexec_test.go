package engine

import (
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// expandFor macro-expands a plan for the executor's query.
func expandFor(t *testing.T, e *Executor, est *plan.Estimator, n *plan.Node) *optree.Op {
	t.Helper()
	op, err := optree.Expand(n, est, optree.DefaultExpandOptions())
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestExecuteOpMatchesExecute: the central equivalence — running the
// macro-expanded operator tree yields exactly the join-tree result.
func TestExecuteOpMatchesExecute(t *testing.T) {
	e, est := rig(t, 300, 200, 150)
	shapes := []func() *plan.Node{
		func() *plan.Node {
			return join(t, est, join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.SortMerge),
				leaf(t, est, "R3"), plan.HashJoin)
		},
		func() *plan.Node {
			return join(t, est, join(t, est, leaf(t, est, "R2"), leaf(t, est, "R1"), plan.HashJoin),
				leaf(t, est, "R3"), plan.NestedLoops)
		},
		func() *plan.Node { // bushy with NL over a join subtree
			inner := join(t, est, leaf(t, est, "R2"), leaf(t, est, "R3"), plan.SortMerge)
			return join(t, est, leaf(t, est, "R1"), inner, plan.HashJoin)
		},
		func() *plan.Node {
			return join(t, est, join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.NestedLoops),
				leaf(t, est, "R3"), plan.SortMerge)
		},
	}
	for i, mk := range shapes {
		p := mk()
		want, err := e.Execute(p)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		op := expandFor(t, e, est, p)
		got, err := e.ExecuteOp(op)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, op, err)
		}
		if got.Len() != want.Len() || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("shape %d (%s): op-tree result differs: %d vs %d rows",
				i, op, got.Len(), want.Len())
		}
	}
}

// TestExecuteOpSortElision: a pre-sorted relation skips its sort in the
// operator tree yet the merge result is still correct.
func TestExecuteOpSortElision(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name:    "A",
		Columns: []catalog.Column{{Name: "k", NDV: 40, Width: 8}},
		Card:    200, Pages: 2, SortedBy: "k",
	})
	cat.MustAddRelation(catalog.Relation{
		Name:    "B",
		Columns: []catalog.Column{{Name: "k", NDV: 40, Width: 8}},
		Card:    150, Pages: 2,
	})
	q := &query.Query{
		Relations: []string{"A", "B"},
		Joins: []query.JoinPredicate{{
			Left:  query.ColumnRef{Relation: "A", Column: "k"},
			Right: query.ColumnRef{Relation: "B", Column: "k"},
		}},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 5)
	e := &Executor{DB: db, Q: q, Parallel: 1}
	est := plan.NewEstimator(cat, q)
	a, _ := est.Leaf("A", plan.SeqScan, nil)
	b, _ := est.Leaf("B", plan.SeqScan, nil)
	sm, _ := est.Join(a, b, plan.SortMerge)
	op := expandFor(t, e, est, sm)
	if got, want := op.String(), "merge(scan(A), sort(scan(B)))"; got != want {
		t.Fatalf("expansion = %s, want %s", got, want)
	}
	got, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Error("elided-sort merge differs from reference")
	}

	// The merge's honesty, made explicit: with B's sort stripped the tree says
	// B arrives in merge order, which it does not. The lowered merge must take
	// the tree at its word and get the join wrong — if it still matches the
	// reference it re-sorted behind the tree's back, and a Sort the expansion
	// forgot could never fail a test.
	op.Inputs[1] = op.Inputs[1].Inputs[0]
	if got, want := op.String(), "merge(scan(A), scan(B))"; got != want {
		t.Fatalf("stripped tree = %s, want %s", got, want)
	}
	wrong, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Fingerprint() == ref.Fingerprint() {
		t.Error("merge over an unsorted input matched the reference: it sorted a side the tree did not")
	}
}

// TestExecuteOpCreateIndex: the create-index inflection path joins
// correctly.
func TestExecuteOpCreateIndex(t *testing.T) {
	e, est := rig(t, 2000, 1500)
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.NestedLoops)
	op := expandFor(t, e, est, p)
	if op.Inputs[1].Kind != optree.CreateIndex {
		t.Fatalf("expected create-index inner, got %v", op.Inputs[1].Kind)
	}
	got, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("create-index NL differs from join-tree execution")
	}
}

// TestExecuteOpWithSelectionsAndProjection: leaf filters and the final
// projection apply identically.
func TestExecuteOpWithSelectionsAndProjection(t *testing.T) {
	e, est := rig(t, 400, 300)
	e.Q.Selections = []query.Selection{{
		Column: query.ColumnRef{Relation: "R1", Column: "fk"}, Value: 5,
	}}
	e.Q.Projection = []query.ColumnRef{{Relation: "R2", Column: "id"}}
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	op := expandFor(t, e, est, p)
	got, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Error("selection+projection differ from reference")
	}
	if len(got.Schema) != 1 {
		t.Errorf("projected schema = %v", got.Schema)
	}
}

func TestExecuteOpErrors(t *testing.T) {
	e, _ := rig(t, 50, 50)
	if _, err := e.ExecuteOp(nil); err == nil {
		t.Error("nil tree should error")
	}
	bad := &optree.Op{Kind: optree.Merge} // arity violation
	if _, err := e.ExecuteOp(bad); err == nil {
		t.Error("invalid arity should error")
	}
	// Sort with a key outside its schema.
	scan := &optree.Op{Kind: optree.Scan, Relation: "R1",
		Source: &plan.Node{Relation: "R1"}}
	srt := &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{scan},
		SortKey: query.ColumnRef{Relation: "ZZ", Column: "x"}}
	if _, err := e.ExecuteOp(srt); err == nil {
		t.Error("bad sort key should error")
	}
	// Unknown relation.
	ghost := &optree.Op{Kind: optree.Scan, Relation: "ghost"}
	if _, err := e.ExecuteOp(ghost); err == nil {
		t.Error("unknown relation should error")
	}
	// Build, CreateIndex and Sort are phases of the join above them and lower
	// nowhere else: a probe needs its build, and a sort — even one with a good
	// key — belongs directly under a merge.
	scan2 := &optree.Op{Kind: optree.Scan, Relation: "R2", Source: &plan.Node{Relation: "R2"}}
	preds := e.Q.Joins
	if _, err := e.ExecuteOp(&optree.Op{Kind: optree.Probe, Inputs: []*optree.Op{scan, scan2}, Preds: preds}); err == nil {
		t.Error("probe over a bare scan should error")
	}
	goodSort := &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{scan2},
		SortKey: query.ColumnRef{Relation: "R2", Column: "fk"}}
	if _, err := e.ExecuteOp(goodSort); err == nil {
		t.Error("sort at the root should error")
	}
	build := &optree.Op{Kind: optree.Build, Inputs: []*optree.Op{goodSort}}
	if _, err := e.ExecuteOp(&optree.Op{Kind: optree.Probe, Inputs: []*optree.Op{scan, build}, Preds: preds}); err == nil {
		t.Error("sort under a build should error")
	}
	// Directly under a merge the same sort lowers; with a key outside its
	// schema it is the sort key that is refused.
	merge := &optree.Op{Kind: optree.Merge, Inputs: []*optree.Op{scan, goodSort}, Preds: preds}
	if _, err := e.ExecuteOp(merge); err != nil {
		t.Errorf("sort under a merge: %v", err)
	}
	merge.Inputs[1] = &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{scan2}, SortKey: srt.SortKey}
	if _, err := e.ExecuteOp(merge); err == nil {
		t.Error("bad sort key under a merge should error")
	}
}

// TestExecuteOpCrossProduct: predicate-less operator joins degrade to cross
// products in all three join operators.
func TestExecuteOpCrossProduct(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "A", Columns: []catalog.Column{{Name: "x", NDV: 3}}, Card: 6, Pages: 1,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "B", Columns: []catalog.Column{{Name: "y", NDV: 3}}, Card: 4, Pages: 1,
	})
	q := &query.Query{Relations: []string{"A", "B"}}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 2)
	e := &Executor{DB: db, Q: q, Parallel: 1}
	est := plan.NewEstimator(cat, q)
	a, _ := est.Leaf("A", plan.SeqScan, nil)
	b, _ := est.Leaf("B", plan.SeqScan, nil)
	nl, _ := est.Join(a, b, plan.NestedLoops)
	op := expandFor(t, e, est, nl)
	got, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 24 {
		t.Errorf("cross product = %d rows, want 24", got.Len())
	}
}
