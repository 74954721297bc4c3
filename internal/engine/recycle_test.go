package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
	"paropt/internal/vec"
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

// poisonPools dirties every pool a run takes from, the way FuzzDecodeBatch
// dirties the chunk pool: column chunks full of poison values, selection
// slabs full of out-of-range rows, and — through tables built and released,
// and through sorts — entry chunks, hashed offset arrays of every length up
// to 2^16 and by-value offset chunks holding another table's buckets, and
// sort orders, keys and digit counts of other sorts. A value a taker reads
// before writing it shows as wrong rows, a stale row index as a panic, a
// stale bucket as matches from another join.
func poisonPools() {
	const poison = -0x5eed
	for i := 0; i < 8; i++ {
		b := vec.Make(16, vec.DefaultBatchRows)
		for _, col := range b.Cols {
			for r := range col {
				col[r] = poison
			}
		}
		b.Release()
		sel := vec.TakeSel(vec.DefaultBatchRows)
		for r := range sel {
			sel[r] = 1 << 30
		}
		vec.PutSel(sel)
	}
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(i%97)<<33 | int64(i%3)<<15 | int64(i%5) // three radix passes
	}
	dense := make([]int64, 1<<12)
	for i := range dense {
		dense[i] = int64(i * 3 % len(dense))
	}
	for n := 16; n <= len(keys); n *= 2 {
		buf := vec.NewBuffer(1)
		buf.Append(&vec.Vec{Cols: [][]int64{keys[:n]}})
		buf.Index(0).Release()
		buf.Col(0).SortOrder(n).Release()
		buf.Release()
		if n <= len(dense) {
			buf.Append(&vec.Vec{Cols: [][]int64{dense[:n]}}) // spans under 4n: by value
			buf.Index(0).Release()
			buf.Release()
		}
	}
}

// TestRecycledBatchesKeepResults is the use-after-release differential of
// the pools a query draws on — batch chunks, a join's buffer and table
// chunks, offset arrays, sort scratch, selection slabs (a scan filter's
// included): goroutines run seeded plans — a hash, a merge and a
// cross-product tree over every world, and random bushy ones mixing hash,
// merge, nested loops and cross products — over fan-out, skewed, filtered
// and empty inputs through ExecuteOp and Run at once, locally at caps
// 1–3 and over a loopback cluster, each run after poisoning the pools, while
// other runs are cancelled mid-flight. The sparse world's keys span over 4×
// its base relations' rows, so builds over them hash where the other
// worlds' index by value. A chunk
// released while something
// still read it, reused under a result or read before it was written changes
// rows: every ExecuteOp fingerprint must equal ReferenceJoin, every Run must
// count its rows, and a cancelled run returns its cause or the right rows.
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
		{"sparse", func(t *testing.T) (*Executor, *plan.Estimator) {
			// Keys scaled by 64 span 705 values: base builds of 100–140
			// rows hash, builds over joined rows still index by value.
			e, est := fanoutRig(t, 12, 140, 120, 100)
			for _, rel := range e.Q.Relations {
				r, _ := e.DB.Relation(rel)
				for _, col := range r.Columns() {
					for i := range col {
						col[i] *= 64
					}
				}
			}
			return e, est
		}},
		{"filtered", func(t *testing.T) (*Executor, *plan.Estimator) {
			e, est := fanoutRig(t, 12, 140, 120, 100)
			e.Q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "F2", Column: "fk"}, Value: 3}}
			return e, est
		}},
		{"empty", func(t *testing.T) (*Executor, *plan.Estimator) {
			e, est := fanoutRig(t, 12, 140, 120, 100)
			e.Q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "F2", Column: "fk"}, Value: -1}}
			return e, est
		}},
	}
	type run struct {
		label  string
		e      *Executor
		p      *plan.Node
		want   uint64
		rows   int
		cancel time.Duration // > 0: cancel the run this long after it starts
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
		f := func(rel string) *plan.Node { return leaf(t, est, rel) }
		trees := []*plan.Node{
			join(t, est, join(t, est, f("F1"), f("F2"), plan.HashJoin), f("F3"), plan.HashJoin),
			join(t, est, f("F1"), join(t, est, f("F2"), f("F3"), plan.SortMerge), plan.SortMerge),
			join(t, est, join(t, est, f("F1"), f("F3"), plan.NestedLoops), f("F2"), plan.HashJoin),
		}
		for trial := 0; trial < 4; trial++ {
			trees = append(trees, randomJoinTree(t, est, rng))
		}
		for _, p := range trees {
			for _, par := range []int{1, 2, 3} {
				pe := *e
				pe.Parallel = par
				runs = append(runs, run{label: fmt.Sprintf("%s/%s/cap %d", w.name, p, par), e: &pe, p: p, want: ref.Fingerprint(), rows: ref.Len()})
			}
			ce := *e
			ce.Parallel, ce.Transport = 2, lb.Cluster(exchange.ClusterConfig{})
			runs = append(runs, run{label: fmt.Sprintf("%s/%s/cluster", w.name, p), e: &ce, p: p, want: ref.Fingerprint(), rows: ref.Len()})
			for _, x := range []*Executor{e, &ce} {
				xe := *x
				xe.Parallel = 2
				delay := time.Duration(1+rng.Intn(400)) * time.Microsecond
				runs = append(runs, run{label: fmt.Sprintf("%s/%s/cancelled after %v, cluster %v", w.name, p, delay, xe.Transport != nil), e: &xe, p: p, want: ref.Fingerprint(), rows: ref.Len(), cancel: delay})
			}
		}
	}
	// check runs r after poisoning the pools: through ExecuteOp, or through
	// Run, which releases every root batch.
	var cancelled atomic.Int64
	check := func(r run, execute bool) error {
		poisonPools()
		e := *r.e
		if r.cancel > 0 {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			defer time.AfterFunc(r.cancel, func() { cancel(errTestCancel) }).Stop()
			e.Ctx = ctx
		}
		var n int
		var fp uint64
		var err error
		if execute {
			var got *Resultset
			if got, err = e.Execute(r.p); err == nil {
				n, fp = got.Len(), got.Fingerprint()
			}
		} else {
			n, err = e.Run(e.expand(r.p))
			fp = r.want
		}
		switch {
		case r.cancel > 0 && errors.Is(err, errTestCancel):
			cancelled.Add(1)
		case err != nil:
			return fmt.Errorf("%s: %v", r.label, err)
		case n != r.rows || fp != r.want:
			return fmt.Errorf("%s: %d rows (fp %x), reference %d (fp %x)", r.label, n, fp, r.rows, r.want)
		}
		return nil
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
				if err := check(runs[i/2], i%2 == 0); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d runs, %d of them cancelled mid-flight", len(runs)*2, cancelled.Load())
}
