package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// fanoutRig builds a chain query R1.id = R2.fk, R2.id = R3.fk, … whose key
// columns draw from ndv values each: small tables with a large join fan-out,
// so full DefaultBatchRows batches — the pooled ones — flow between every
// operator while the brute-force reference stays cheap.
func fanoutRig(t testing.TB, ndv int64, cards ...int64) (*Executor, *plan.Estimator) {
	t.Helper()
	cat := catalog.New()
	var rels []string
	for i, card := range cards {
		name := "F" + string(rune('1'+i))
		rels = append(rels, name)
		cat.MustAddRelation(catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", NDV: ndv, Width: 8},
				{Name: "fk", NDV: ndv, Width: 8},
			},
			Card:  card,
			Pages: maxI(card/50, 1),
		})
	}
	q := &query.Query{Name: "fanout", Relations: rels}
	for i := 0; i+1 < len(rels); i++ {
		q.Joins = append(q.Joins, query.JoinPredicate{
			Left:  query.ColumnRef{Relation: rels[i], Column: "id"},
			Right: query.ColumnRef{Relation: rels[i+1], Column: "fk"},
		})
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	return &Executor{DB: storage.NewDatabase(cat, 17), Q: q, Parallel: 1}, plan.NewEstimator(cat, q)
}

// randomJoinTree joins the query's relations in a random bushy shape: each
// join takes two neighbours of a shuffled list and a random method among
// hash, merge and nested loops; a pair no predicate connects is a cross
// product.
func randomJoinTree(t testing.TB, est *plan.Estimator, rng *rand.Rand) *plan.Node {
	t.Helper()
	var nodes []*plan.Node
	for _, pos := range rng.Perm(len(est.Q.Relations)) {
		nodes = append(nodes, leaf(t, est, est.Q.Relations[pos]))
	}
	for len(nodes) > 1 {
		i := rng.Intn(len(nodes) - 1)
		method := []plan.JoinMethod{plan.HashJoin, plan.SortMerge, plan.NestedLoops}[rng.Intn(3)]
		if len(est.Q.JoinsBetween(nodes[i].Rels, nodes[i+1].Rels)) == 0 {
			method = plan.NestedLoops
		}
		j := join(t, est, nodes[i], nodes[i+1], method)
		nodes = append(nodes[:i], append([]*plan.Node{j}, nodes[i+2:]...)...)
	}
	return nodes[0]
}

// TestRecycledBatchesKeepResults is the use-after-release differential of
// pooled batches: goroutines run seeded random plans — hash, merge, nested
// loops and cross products, over fan-out, skewed and empty inputs — through
// ExecuteOp and Run at once, locally at caps 1–3 and over a loopback cluster,
// every batch drawing on and returning to the one chunk pool. A batch
// released while something still read it, or a chunk reused under a result,
// changes rows: every ExecuteOp fingerprint must equal ReferenceJoin and
// every Run must count its rows.
func TestRecycledBatchesKeepResults(t *testing.T) {
	lb, err := exchange.StartLoopback(2, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	worlds := []struct {
		name string
		mk   func(t *testing.T) (*Executor, *plan.Estimator)
	}{
		{"fanout", func(t *testing.T) (*Executor, *plan.Estimator) { return fanoutRig(t, 12, 140, 120, 100) }},
		{"skewed", func(t *testing.T) (*Executor, *plan.Estimator) { return fanoutRig(t, 2, 90, 60, 40) }},
		{"empty", func(t *testing.T) (*Executor, *plan.Estimator) {
			e, est := fanoutRig(t, 12, 140, 120, 100)
			e.Q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "F2", Column: "fk"}, Value: -1}}
			return e, est
		}},
	}
	type run struct {
		label string
		e     *Executor
		p     *plan.Node
		want  uint64
		rows  int
	}
	var runs []run
	rng := rand.New(rand.NewSource(40))
	for _, w := range worlds {
		e, est := w.mk(t)
		ref, err := ReferenceJoin(e)
		if err != nil {
			t.Fatal(err)
		}
		if (w.name == "empty") != (ref.Len() == 0) {
			t.Fatalf("%s world: reference has %d rows", w.name, ref.Len())
		}
		t.Logf("%s world: %d reference rows", w.name, ref.Len())
		for trial := 0; trial < 4; trial++ {
			p := randomJoinTree(t, est, rng)
			for _, par := range []int{1, 2, 3} {
				pe := *e
				pe.Parallel = par
				runs = append(runs, run{fmt.Sprintf("%s/%s/cap %d", w.name, p, par), &pe, p, ref.Fingerprint(), ref.Len()})
			}
			ce := *e
			ce.Parallel, ce.Transport = 2, lb.Cluster(exchange.ClusterConfig{})
			runs = append(runs, run{fmt.Sprintf("%s/%s/cluster", w.name, p), &ce, p, ref.Fingerprint(), ref.Len()})
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(runs)*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Even goroutines execute, odd ones run: both at once, over
			// every world and path.
			for i := g; i < len(runs)*2; i += goroutines {
				r := runs[i/2]
				if i%2 == 0 {
					got, err := r.e.Execute(r.p)
					switch {
					case err != nil:
						errs <- fmt.Errorf("%s: ExecuteOp: %v", r.label, err)
					case got.Len() != r.rows || got.Fingerprint() != r.want:
						errs <- fmt.Errorf("%s: ExecuteOp returned %d rows (fp %x), reference %d (fp %x)", r.label, got.Len(), got.Fingerprint(), r.rows, r.want)
					}
					continue
				}
				n, err := r.e.Run(r.e.expand(r.p))
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s: Run: %v", r.label, err)
				case n != r.rows:
					errs <- fmt.Errorf("%s: Run counted %d rows, reference %d", r.label, n, r.rows)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
