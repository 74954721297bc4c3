package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/placement"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// placedRig builds the rig world plus the pieces placement needs: the
// catalog (for worker stores) and the generation seed shared with the
// executor's database.
func placedRig(t testing.TB, cards ...int64) (*Executor, *plan.Estimator, *catalog.Catalog) {
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
	q := &query.Query{Name: "placed", Relations: rels}
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
	return &Executor{DB: db, Q: q, Parallel: 1}, est, cat
}

// placedWorkers starts a loopback cluster whose workers each hold their own
// placement store over the catalog (seed 42, matching placedRig's database)
// and returns the loopback plus the placement map built over the worker
// addresses.
func placedWorkers(t *testing.T, cat *catalog.Catalog, joins []exchange.JoinFunc) (*exchange.Loopback, *placement.Map) {
	t.Helper()
	workers := make([]*exchange.Worker, len(joins))
	for i, fn := range joins {
		workers[i] = &exchange.Worker{Join: fn, Store: placement.NewStore(cat, 42)}
	}
	lb, err := exchange.StartLoopbackWorkers(workers)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := placement.Build(cat, "test", lb.Addrs(), 42, nil)
	if err != nil {
		lb.Close()
		t.Fatal(err)
	}
	return lb, pm
}

// TestPlacedJoinShipsScansAndMatchesSingleProcess: with a placement map
// installed, the distributed join must source both leaves at the workers —
// no base tuples through the coordinator — and still produce row-identical
// results for every join method.
func TestPlacedJoinShipsScansAndMatchesSingleProcess(t *testing.T) {
	for _, method := range []plan.JoinMethod{plan.HashJoin, plan.SortMerge, plan.NestedLoops} {
		e, est, cat := placedRig(t, 3_000, 2_000)
		lb, pm := placedWorkers(t, cat, []exchange.JoinFunc{FragmentJoin, FragmentJoin})
		p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), method)

		e.Parallel = 4
		single, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v single-process: %v", method, err)
		}

		// Streamed baseline on the same workers, for the byte comparison.
		streamed := lb.Cluster(exchange.ClusterConfig{})
		e.Transport = streamed
		if _, err := e.Execute(p); err != nil {
			t.Fatalf("%v streamed: %v", method, err)
		}

		placed := lb.Cluster(exchange.ClusterConfig{Owners: pm.OwnerMap()})
		e.Transport = placed
		distributed, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v placed: %v", method, err)
		}
		e.Transport = nil

		ns, nd := single.Normalize(), distributed.Normalize()
		if !reflect.DeepEqual(sortRows(ns), sortRows(nd)) {
			t.Fatalf("%v: placed rows differ from single-process (%d vs %d rows)",
				method, nd.Len(), ns.Len())
		}
		if single.Len() == 0 {
			t.Fatalf("%v: join produced nothing; fixture broken", method)
		}
		if placed.ShippedScans() == 0 {
			t.Fatalf("%v: no scans shipped despite placement map", method)
		}

		sent := func(c *exchange.Cluster) int64 {
			var n int64
			for _, l := range c.Links() {
				n += l.BytesSent
			}
			return n
		}
		if s, b := sent(placed), sent(streamed); s*2 > b {
			t.Errorf("%v: coordinator sent %d bytes placed vs %d streamed; want ≥50%% cut",
				method, s, b)
		}
		lb.Close()
	}
}

// killedOp is the join of a worker that dies mid-fragment: one batch of
// partial junk, then the failure.
type killedOp struct {
	left, right Operator
	emitted     bool
}

func (o *killedOp) Next(context.Context) (Batch, error) {
	if !o.emitted {
		o.emitted = true
		return &vec.Vec{Cols: [][]int64{{-9}, {-9}, {-9}, {-9}}}, nil
	}
	return nil, errors.New("worker killed mid-join")
}

func (o *killedOp) Close() { o.left.Close(); o.right.Close() }

// TestPlacedJoinSurvivesWorkerDeathMidQuery is the kill-a-worker acceptance
// test: one of two workers fails every fragment dispatched to it; the
// shipped fragments must be re-dispatched to the survivor and the query
// must complete with exactly the single-process rows.
func TestPlacedJoinSurvivesWorkerDeathMidQuery(t *testing.T) {
	killed := func(frag exchange.Fragment, left, right Operator) (Operator, error) {
		return &killedOp{left: left, right: right}, nil
	}
	e, est, cat := placedRig(t, 3_000, 2_000)
	lb, pm := placedWorkers(t, cat, []exchange.JoinFunc{killed, FragmentJoin})
	defer lb.Close()
	addrs := lb.Addrs()

	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	e.Parallel = 4
	single, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}

	cluster := lb.Cluster(exchange.ClusterConfig{
		Owners:  pm.OwnerMap(),
		Members: func() ([]string, int64) { return addrs, 3 },
	})
	e.Transport = cluster
	distributed, err := e.Execute(p)
	if err != nil {
		t.Fatalf("query must survive the dead worker: %v", err)
	}
	e.Transport = nil

	ns, nd := single.Normalize(), distributed.Normalize()
	if !reflect.DeepEqual(sortRows(ns), sortRows(nd)) {
		t.Fatalf("rows differ after re-dispatch (%d vs %d)", nd.Len(), ns.Len())
	}
	if cluster.Retries() < 1 {
		t.Errorf("Retries = %d, want ≥1", cluster.Retries())
	}
	if cluster.Fallbacks() != 0 {
		t.Errorf("Fallbacks = %d, want 0 (the survivor could run everything)", cluster.Fallbacks())
	}
}

// TestPlacedJoinFallsBackToCoordinator: every worker dead mid-query → the
// coordinator runs the shipped fragments itself from its own store.
func TestPlacedJoinFallsBackToCoordinator(t *testing.T) {
	boom := func(exchange.Fragment, Operator, Operator) (Operator, error) {
		return nil, errors.New("cluster lost")
	}
	e, est, cat := placedRig(t, 2_000, 1_000)
	lb, pm := placedWorkers(t, cat, []exchange.JoinFunc{boom})
	defer lb.Close()
	addrs := lb.Addrs()

	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	e.Parallel = 3
	single, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}

	fstore := placement.NewStore(cat, 42)
	for _, name := range cat.RelationNames() {
		if tb, ok := e.DB.Table(name); ok {
			fstore.AddTable(tb)
		}
	}
	cluster := lb.Cluster(exchange.ClusterConfig{
		Owners:  pm.OwnerMap(),
		Members: func() ([]string, int64) { return addrs, 1 },
		Store:   fstore,
		Fn:      FragmentJoin,
	})
	e.Transport = cluster
	distributed, err := e.Execute(p)
	if err != nil {
		t.Fatalf("coordinator fallback must complete the query: %v", err)
	}
	e.Transport = nil

	ns, nd := single.Normalize(), distributed.Normalize()
	if !reflect.DeepEqual(sortRows(ns), sortRows(nd)) {
		t.Fatalf("fallback rows differ (%d vs %d)", nd.Len(), ns.Len())
	}
	if cluster.Fallbacks() < 1 {
		t.Errorf("Fallbacks = %d, want ≥1", cluster.Fallbacks())
	}
}
