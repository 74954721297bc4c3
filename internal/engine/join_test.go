package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// skewRig builds a two-relation world whose join columns have only two
// distinct values — the hot-key regime where every probe hits a long chain
// and hash partitioning is maximally imbalanced.
func skewRig(t testing.TB, lcard, rcard int64) (*Executor, *plan.Estimator) {
	t.Helper()
	cat := catalog.New()
	for i, card := range []int64{lcard, rcard} {
		cat.MustAddRelation(catalog.Relation{
			Name: "S" + string(rune('1'+i)),
			Columns: []catalog.Column{
				{Name: "id", NDV: 2, Width: 8},
				{Name: "fk", NDV: 2, Width: 8},
			},
			Card:  card,
			Pages: maxI(card/50, 1),
		})
	}
	q := &query.Query{Name: "skew", Relations: []string{"S1", "S2"}}
	q.Joins = append(q.Joins, query.JoinPredicate{
		Left:  query.ColumnRef{Relation: "S1", Column: "id"},
		Right: query.ColumnRef{Relation: "S2", Column: "fk"},
	})
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 42)
	est := plan.NewEstimator(cat, q)
	return &Executor{DB: db, Q: q, Parallel: 1}, est
}

// TestSymmetricJoinDifferential is the differential property test of the
// vectorized engine's one join path: the same plan serial, locally parallel
// at degrees 2, 3 and 8, and distributed (loopback workers over TCP) must all
// produce row-identical Resultset fingerprints — including skewed keys and
// empty inputs. The name is historical: the symmetric hash join it also
// drove is deleted.
func TestSymmetricJoinDifferential(t *testing.T) {
	lb, err := exchange.StartLoopback(2, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cases := []struct {
		name     string
		mk       func(t *testing.T) (*Executor, *plan.Estimator)
		plan     func(t *testing.T, est *plan.Estimator) *plan.Node
		wantRows bool
	}{
		{
			name: "balanced",
			mk:   func(t *testing.T) (*Executor, *plan.Estimator) { return rig(t, 3_000, 2_000) },
			plan: func(t *testing.T, est *plan.Estimator) *plan.Node {
				return join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
			},
			wantRows: true,
		},
		{
			name: "chain3",
			mk:   func(t *testing.T) (*Executor, *plan.Estimator) { return rig(t, 600, 500, 400) },
			plan: func(t *testing.T, est *plan.Estimator) *plan.Node {
				j1 := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
				return join(t, est, j1, leaf(t, est, "R3"), plan.HashJoin)
			},
			wantRows: true,
		},
		{
			name: "skewed-keys",
			mk:   func(t *testing.T) (*Executor, *plan.Estimator) { return skewRig(t, 400, 300) },
			plan: func(t *testing.T, est *plan.Estimator) *plan.Node {
				return join(t, est, leaf(t, est, "S1"), leaf(t, est, "S2"), plan.HashJoin)
			},
			wantRows: true,
		},
		{
			name: "empty-left",
			mk: func(t *testing.T) (*Executor, *plan.Estimator) {
				e, est := rig(t, 300, 200)
				e.Q.Selections = []query.Selection{{
					Column: query.ColumnRef{Relation: "R1", Column: "fk"},
					Value:  -1, // generated values are non-negative: no row survives
				}}
				return e, est
			},
			plan: func(t *testing.T, est *plan.Estimator) *plan.Node {
				return join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
			},
		},
		{
			name: "empty-both",
			mk: func(t *testing.T) (*Executor, *plan.Estimator) {
				e, est := rig(t, 300, 200)
				e.Q.Selections = []query.Selection{
					{Column: query.ColumnRef{Relation: "R1", Column: "fk"}, Value: -1},
					{Column: query.ColumnRef{Relation: "R2", Column: "id"}, Value: -1},
				}
				return e, est
			},
			plan: func(t *testing.T, est *plan.Estimator) *plan.Node {
				return join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, est := tc.mk(t)
			p := tc.plan(t, est)
			ref, err := ReferenceJoin(e)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantRows && ref.Len() == 0 {
				t.Fatal("fixture produced no rows")
			}
			if !tc.wantRows && ref.Len() != 0 {
				t.Fatalf("empty fixture produced %d rows", ref.Len())
			}
			want := ref.Fingerprint()

			type path struct {
				name      string
				parallel  int
				transport exchange.Transport
			}
			var paths []path
			// Parallel 1 is the serial join; above it the scatter hands each
			// partition selection-vector views of the input batches.
			for _, par := range []int{1, 2, 3, 8} {
				paths = append(paths, path{fmt.Sprintf("parallel-%d", par), par, nil})
			}
			paths = append(paths, path{"distributed", 4, lb.Cluster(exchange.ClusterConfig{})})
			for _, path := range paths {
				e.Parallel = path.parallel
				e.Transport = path.transport
				got, err := e.Execute(p)
				e.Parallel, e.Transport = 1, nil
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				if got.Len() != ref.Len() || got.Fingerprint() != want {
					t.Errorf("%s: %d rows (fp %x), want %d rows (fp %x)",
						path.name, got.Len(), got.Fingerprint(), ref.Len(), want)
				}
			}
		})
	}
}

// heapNow returns the post-GC live heap.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestJoinHeapBound pins what the hash join keeps per build row, as an
// absolute number stated before measuring, for each layout of its table. It
// copies its build side once into buffer chunks (8 B per value, one partial
// chunk per column) and indexes it with a table built once: by value when
// the build keys span fewer than 4× as many values as rows (an 8 B entry per
// row plus 4·(span+1)/n B of offsets), else hashed (an 8 B hash-and-row entry
// plus at most 4 B of offsets per row). The build is R2.fk: its card/4
// values index by value, and the same scaled by 32, spanning 8n, hash. The peak is sampled mid-run
// (post-GC live heap while the operator's structures are reachable); output
// batches are discarded so only the join state counts. The base is taken
// with the chunk pools empty — sync.Pool keeps a victim generation, so that
// is two collections — so the chunks the join takes are allocated, and
// measured, on every run; and the tables the scans read stay reachable to
// the end, or their collection mid-run would hide the join's bytes.
func TestJoinHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement on 2×100k rows")
	}
	const n, width = 100_000, 2
	for _, c := range []struct {
		name    string
		scale   int64 // of R2.fk
		byValue bool
	}{{"by-value", 1, true}, {"hashed", 32, false}} {
		t.Run(c.name, func(t *testing.T) {
			e, _ := rig(t, n, n)
			r2, _ := e.DB.Relation("R2")
			fk := r2.Columns()[1]
			for i := range fk {
				fk[i] *= c.scale
			}
			span := slices.Max(fk) - slices.Min(fk) + 1
			if byValue := span < 4*n; byValue != c.byValue {
				t.Fatalf("R2.fk spans %d values over %d rows: by value = %v", span, n, byValue)
			}
			perRow := float64(8*width + 12)
			if c.byValue {
				perRow = float64(8*width+8) + 4*float64(span+1)/n
			}
			peak := joinHeapPeak(t, e)
			// Slack for what is live besides the join state: the in-flight
			// output batch, selection scratch, the offsets' last chunk,
			// runtime bookkeeping.
			const slack = 256 << 10
			t.Logf("span %d: peak heap over base: %d B (%.1f B/build row, bound %.1f)", span, peak, float64(peak)/n, perRow)
			if peak == 0 {
				t.Error("no heap over base measured: the join state went uncounted")
			}
			if limit := uint64(perRow*n + slack); peak > limit {
				t.Errorf("hash join peak heap %d B exceeds %.1f B/build row (%d B)", peak, perRow, limit)
			}
		})
	}
}

// joinHeapPeak runs R1.id = R2.fk as a hash join over e's data and returns
// its peak live heap over the base.
func joinHeapPeak(t *testing.T, e *Executor) uint64 {
	t.Helper()
	lop, _, err := e.scan("R1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rop, _, err := e.scan("R2", nil)
	if err != nil {
		t.Fatal(err)
	}
	lkeys := []int{0} // R1.id
	rkeys := []int{1} // R2.fk
	runtime.GC()
	base := heapNow()
	op := e.joinFor("hash", lop, rop, lkeys, rkeys)
	defer op.Close()
	ctx := context.Background()
	var peak uint64
	batches := 0
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if batches%16 == 0 {
			if h := heapNow(); h > base && h-base > peak {
				peak = h - base
			}
		}
		batches++
		if b == nil {
			break
		}
	}
	runtime.KeepAlive(e)
	return peak
}

// TestParallelJoinAllocationPin: a cloned hash join copies a row once per
// operator — into the build buffer or into the output batch — and nothing
// else scales with rows: the scatter moves no values, the result keeps the
// root's batches. Bytes allocated per result row of a 100k ⋈ 100k join at
// degree 2 therefore stay near (build row + result row) × 8 B, and the
// allocation count near one slab per batch. A reintroduced per-row copy,
// per-key allocation or row-major result fails here, not only in the
// benchmark.
func TestParallelJoinAllocationPin(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on 2×100k rows")
	}
	const n = 100_000
	e, est := rig(t, n, n)
	e.Parallel = 2
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	rows := 0
	run := func() {
		res, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Len()
	}
	run()
	if rows < n {
		t.Fatalf("fixture join returned %d rows", rows)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*rows)
	allocsPerRow := allocs / float64(rows)
	t.Logf("%d result rows: %.1f B and %.4f allocations per result row", rows, bytesPerRow, allocsPerRow)
	// Measured 50 B and 0.01 allocations per row; with a map build, a per-row
	// scatter and a row-major result the same join spent 326 B and 1.28.
	if bytesPerRow > 80 {
		t.Errorf("%.1f B allocated per result row, ceiling 80", bytesPerRow)
	}
	if allocsPerRow > 0.05 {
		t.Errorf("%.4f allocations per result row, ceiling 0.05", allocsPerRow)
	}
}

// firehoseOp emits the same batch forever and never checks its context —
// the adversarial child that catches a drain loop relying on the child's
// own cancellation checkpoints.
type firehoseOp struct{ b Batch }

func (o *firehoseOp) Next(context.Context) (Batch, error) { return o.b, nil }
func (o *firehoseOp) Close()                              {}

// TestDrainCancelBetweenBatches: drain and drainBuffer must notice a dead
// context between batches even when the child never does.
func TestDrainCancelBetweenBatches(t *testing.T) {
	fire := &firehoseOp{b: &vec.Vec{Cols: [][]int64{{1}, {2}}}}
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errTestCancel)
	if _, err := drainBuffer(ctx, fire); !errors.Is(err, errTestCancel) {
		t.Errorf("drainBuffer: err = %v, want cause %v", err, errTestCancel)
	}
	if err := drain(ctx, fire, func(Batch) {}); !errors.Is(err, errTestCancel) {
		t.Errorf("drain: err = %v, want cause %v", err, errTestCancel)
	}
}

// TestCrossProductCancelBetweenBatches: a cross product far too large to
// materialize must unwind promptly on cancel instead of draining the
// buffered inner to completion.
func TestCrossProductCancelBetweenBatches(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"A", "B"} {
		cat.MustAddRelation(catalog.Relation{
			Name: name, Columns: []catalog.Column{{Name: "x", NDV: 1000}}, Card: 20_000, Pages: 400,
		})
	}
	q := &query.Query{Relations: []string{"A", "B"}} // no predicates: 4×10⁸ output rows
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 9)
	ctx, cancel := context.WithCancelCause(context.Background())
	e := &Executor{DB: db, Q: q, Parallel: 1, Ctx: ctx}
	est := plan.NewEstimator(cat, q)
	p := join(t, est, leaf(t, est, "A"), leaf(t, est, "B"), plan.NestedLoops)
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(p)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel(errTestCancel)
	select {
	case err := <-done:
		if !errors.Is(err, errTestCancel) {
			t.Fatalf("err = %v, want cause %v", err, errTestCancel)
		}
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("cross product did not unwind within 5s of cancel\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// BenchmarkPairJoinVec pulls a 2M-row pair join (R1.id = R2.fk, 1M rows a
// side) through the serial columnar build-probe join, counting joined rows —
// the §VE1 workload.
func BenchmarkPairJoinVec(b *testing.B) {
	e, est := rig(b, 1_000_000, 1_000_000)
	p := join(b, est, leaf(b, est, "R1"), leaf(b, est, "R2"), plan.HashJoin)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, _, _, err := e.lower(e.expand(p))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := op.Next(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
			n += batch.Len()
		}
		op.Close()
		if n == 0 {
			b.Fatal("join produced no rows")
		}
	}
}
