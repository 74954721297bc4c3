package engine

import (
	"fmt"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
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

// TestSerialMergeOverClonedMerge: the tree elides a merge's sort over a child
// merge on the same equivalence class, whose output it credits with the merge
// order. Annotated at degree 1 over a child at degree 4, the serial merge
// reads the child's partitions interleaved — unordered — so it must sort that
// side itself or drop matches.
func TestSerialMergeOverClonedMerge(t *testing.T) {
	cat := catalog.New()
	for _, r := range []struct {
		name string
		card int64
	}{{"A", 400}, {"B", 300}, {"C", 200}} {
		cat.MustAddRelation(catalog.Relation{
			Name:    r.name,
			Columns: []catalog.Column{{Name: "k", NDV: r.card / 4, Width: 8}},
			Card:    r.card, Pages: 2,
		})
	}
	k := func(rel string) query.ColumnRef { return query.ColumnRef{Relation: rel, Column: "k"} }
	q := &query.Query{
		Relations: []string{"A", "B", "C"},
		Joins:     []query.JoinPredicate{{Left: k("A"), Right: k("B")}, {Left: k("B"), Right: k("C")}},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	e := &Executor{DB: storage.NewDatabase(cat, 7), Q: q, Parallel: 4}
	est := plan.NewEstimator(cat, q)
	p := join(t, est, join(t, est, leaf(t, est, "A"), leaf(t, est, "B"), plan.SortMerge),
		leaf(t, est, "C"), plan.SortMerge)
	op := expandFor(t, e, est, p)
	if got, want := op.String(), "merge(merge(sort(scan(A)), sort(scan(B))), sort(scan(C)))"; got != want {
		t.Fatalf("expansion = %s, want %s", got, want)
	}
	optree.Annotate(op, machine.New(machine.Config{CPUs: 4, Disks: 4}), est, optree.AnnotateOptions{MinTuplesPerClone: 1})
	op.Clone.Resources = op.Clone.Resources[:1]
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Stats = &ExecStats{}
	got, err := e.ExecuteOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ref.Len() || got.Fingerprint() != ref.Fingerprint() {
		t.Errorf("serial merge over a cloned merge: %d rows, reference %d", got.Len(), ref.Len())
	}
	by := e.Stats.ByNode()
	if top, child := by[p].Clones, by[p.Left].Clones; top != 1 || child != 4 {
		t.Errorf("clones: top merge %d, child merge %d; want 1 over 4", top, child)
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

// TestLoweredCloneCounts pins "execute what was priced": lowering an
// annotated operator tree runs every join at exactly min(annotated degree,
// Parallel) clones — one when serial — and a join over a scan the transport
// ships at that relation's owning-worker count, whatever its degree. The
// shipped case is what guards the look-through rule: the shipped scans sit
// under the hash join's Build, the merge's Sort and the nested loops'
// CreateIndex, and a join that failed to see through them would stream the
// base table from the coordinator, at its annotated degree, instead.
func TestLoweredCloneCounts(t *testing.T) {
	e, est, cat := placedRig(t, 600, 500, 400, 1_000)
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	p := join(t, est, join(t, est, join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin),
		leaf(t, est, "R3"), plan.SortMerge), leaf(t, est, "R4"), plan.NestedLoops)
	op := expandFor(t, e, est, p)
	if got, want := op.String(), "pure-nested-loops(merge(sort(probe(scan(R1), build(scan(R2)))), sort(scan(R3))), create-index(scan(R4)))"; got != want {
		t.Fatalf("expansion = %s, want %s", got, want)
	}
	// Every operator gets all 4 CPUs at one tuple per clone; the joins are
	// then cut to a mix of degrees, bottom-up.
	optree.Annotate(op, machine.New(machine.Config{CPUs: 4, Disks: 4}), est, optree.AnnotateOptions{MinTuplesPerClone: 1})
	var joins []*optree.Op
	op.Walk(func(o *optree.Op) {
		switch o.Kind {
		case optree.Probe, optree.Merge, optree.PureNL:
			joins = append(joins, o)
		}
	})
	for i, d := range []int{1, 3, 4} {
		joins[i].Clone.Resources = joins[i].Clone.Resources[:d]
	}

	lb, pm := placedWorkers(t, cat, []exchange.JoinFunc{FragmentJoin, FragmentJoin})
	defer lb.Close()
	owners := pm.OwnerMap()
	run := func(name string, parallel int, tr exchange.Transport, want []int) {
		t.Helper()
		e.Parallel, e.Transport, e.Stats = parallel, tr, &ExecStats{}
		defer func() { e.Parallel, e.Transport, e.Stats = 1, nil, nil }()
		res, err := e.ExecuteOp(op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Fingerprint() != ref.Fingerprint() {
			t.Errorf("%s: %d rows differ from the reference's %d", name, res.Len(), ref.Len())
		}
		by := e.Stats.ByNode()
		for i, j := range joins {
			if got := by[j.Source].Clones; got != want[i] {
				t.Errorf("%s: %s (degree %d) ran %d clones, want %d", name, j.Kind, j.Clone.Degree(), got, want[i])
			}
		}
	}
	for _, parallel := range []int{0, 1, 2, 3, 8} {
		want := make([]int, len(joins))
		for i, j := range joins {
			want[i] = max(min(j.Clone.Degree(), parallel), 1)
		}
		run(fmt.Sprintf("parallel-%d", parallel), parallel, nil, want)
	}
	placed := lb.Cluster(exchange.ClusterConfig{Owners: owners})
	run("shipped", 8, placed, []int{len(owners["R1"]), len(owners["R3"]), len(owners["R4"])})
	// Every fragment ships its scan sides: both of the bottom join's, one of
	// each join above it.
	if got, want := placed.ShippedScans(), int64(2*len(owners["R1"])+len(owners["R3"])+len(owners["R4"])); got != want {
		t.Errorf("shipped %d scan sides, want %d", got, want)
	}
}
