package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"paropt/internal/engine/exchange"
	"paropt/internal/placement"
	"paropt/internal/plan"
	"paropt/internal/vec"
)

var errChild = errors.New("test: child operator failed")

// childOp is a join input under observation: it counts its Closes and, when
// failAfter ≥ 0, fails with errChild once it has yielded that many batches.
type childOp struct {
	Operator
	failAfter int
	yielded   int
	closed    atomic.Int32
}

func (o *childOp) Next(ctx context.Context) (Batch, error) {
	if o.yielded == o.failAfter {
		return nil, errChild
	}
	o.yielded++
	return o.Operator.Next(ctx)
}

func (o *childOp) Close() { o.closed.Add(1); o.Operator.Close() }

// TestJoinTeardown is the contract that replaced "consume both inputs to
// exhaustion even on failure": over every transport and every way a join
// ends, the error is the one the result's Next returned, every child operator
// is closed exactly once, and once the result is closed nothing of the join is
// left — no goroutine, no staged partition, no running fragment.
func TestJoinTeardown(t *testing.T) {
	const bs = 64 // ~50 batches a side: far more than any channel or window holds
	e, est, cat := placedRig(t, 3_000, 2_000)
	e.BatchSize = bs
	serial, err := e.Execute(join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin))
	if err != nil {
		t.Fatal(err)
	}
	// One R2 row as the whole build side: its fk hashes to one partition, so
	// every other partition's join ends while its probe input still streams.
	r1, _ := e.DB.Table("R1")
	r2, _ := e.DB.Table("R2")
	oneRow := r2.Rows[:1]
	oneRowMatches := 0
	for _, r := range r1.Rows {
		if r[0] == oneRow[0][1] {
			oneRowMatches++
		}
	}

	ws := []*exchange.WorkerStats{{}, {}, {}}
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: FragmentJoin, Store: placement.NewStore(cat, 42), Stats: ws[0]},
		{Join: FragmentJoin, Store: placement.NewStore(cat, 42), Stats: ws[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	refuse := func(exchange.Fragment, Operator, Operator) (Operator, error) {
		return nil, errors.New("worker refuses every fragment")
	}
	refusing, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: refuse, Store: placement.NewStore(cat, 42), Stats: ws[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refusing.Close()
	dead, err := exchange.StartLoopback(1, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close() // nothing listens there anymore
	owners := func(addrs []string) map[string][]string {
		return map[string][]string{"R1": addrs, "R2": addrs}
	}
	fstore := placement.NewStore(cat, 42)

	transports := []struct {
		name    string
		shipped bool // inputs are worker-sourced scans: the join has no child operators
		tr      func() exchange.Transport
		deadTr  func() exchange.Transport // the same with nobody listening; nil where nothing dials
	}{
		{"local", false, func() exchange.Transport { return &exchange.Local{Fn: FragmentJoin} }, nil},
		{"streamed", false,
			func() exchange.Transport { return lb.Cluster(exchange.ClusterConfig{Window: 2}) },
			func() exchange.Transport { return dead.Cluster(exchange.ClusterConfig{}) }},
		{"shipped", true,
			func() exchange.Transport {
				return lb.Cluster(exchange.ClusterConfig{Window: 2, Owners: owners(lb.Addrs())})
			},
			func() exchange.Transport {
				return dead.Cluster(exchange.ClusterConfig{Owners: owners(dead.Addrs())})
			}},
		{"fallback", true,
			func() exchange.Transport {
				return refusing.Cluster(exchange.ClusterConfig{
					Owners: owners(refusing.Addrs()), Store: fstore, Fn: FragmentJoin})
			}, nil},
	}
	type run struct {
		op          Operator
		joinErr     error
		ctx         context.Context
		cancel      context.CancelCauseFunc
		left, right *childOp
	}
	scenarios := []struct {
		name     string
		streamed bool                                     // needs child operators
		dial     bool                                     // runs against deadTr
		children func(l, r Operator) (*childOp, *childOp) // nil: both healthy
		check    func(t *testing.T, r *run, shipped bool)
	}{
		{name: "ok", check: func(t *testing.T, r *run, _ bool) {
			if rows, err := pullCtx(r.ctx, r.op); err != nil || rows != serial.Len() {
				t.Errorf("%d rows, err %v; want %d rows", rows, err, serial.Len())
			}
		}},
		{name: "partitions that end early", streamed: true,
			children: func(l, _ Operator) (*childOp, *childOp) {
				return &childOp{Operator: l, failAfter: -1}, &childOp{Operator: &sliceOp{batches: []Batch{vec.FromRows(oneRow)}}, failAfter: -1}
			},
			check: func(t *testing.T, r *run, _ bool) {
				if rows, err := pullCtx(r.ctx, r.op); err != nil || rows != oneRowMatches {
					t.Errorf("%d rows, err %v; want %d rows", rows, err, oneRowMatches)
				}
			}},
		{name: "child fails mid-stream", streamed: true,
			children: func(l, r Operator) (*childOp, *childOp) {
				return &childOp{Operator: l, failAfter: 3}, &childOp{Operator: r, failAfter: -1}
			},
			check: func(t *testing.T, r *run, _ bool) {
				if _, err := pullCtx(r.ctx, r.op); !errors.Is(err, errChild) {
					t.Errorf("err = %v, want the child's own error", err)
				}
			}},
		{name: "cancelled mid-stream", check: func(t *testing.T, r *run, _ bool) {
			if b, err := r.op.Next(r.ctx); b == nil || err != nil {
				t.Fatalf("first batch: %v, err %v", b, err)
			}
			r.cancel(errTestCancel)
			if _, err := pullCtx(r.ctx, r.op); !errors.Is(err, errTestCancel) {
				t.Errorf("err = %v, want the cancellation cause", err)
			}
		}},
		{name: "closed after the first batch", check: func(t *testing.T, r *run, _ bool) {
			if b, err := r.op.Next(r.ctx); b == nil || err != nil {
				t.Fatalf("first batch: %v, err %v", b, err)
			}
		}},
		{name: "dial fails", dial: true, check: func(t *testing.T, r *run, shipped bool) {
			// A streamed join dials in Join; a shipped one per attempt, so its
			// failure is the result's.
			err := r.joinErr
			if shipped {
				_, err = pullCtx(r.ctx, r.op)
			}
			var we *exchange.WorkerError
			if !errors.As(err, &we) {
				t.Errorf("err = %v (%T), want *exchange.WorkerError", err, err)
			}
		}},
	}

	for _, tp := range transports {
		for _, sc := range scenarios {
			if sc.streamed && tp.shipped || sc.dial && tp.deadTr == nil {
				continue
			}
			t.Run(tp.name+"/"+sc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				r := &run{}
				r.ctx, r.cancel = context.WithCancelCause(context.Background())
				defer r.cancel(nil)
				frag := exchange.Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{1}, Parts: 2, BatchSize: bs}
				var left, right Operator // nil interfaces for a shipped join
				if tp.shipped {
					frag.LeftScan = &exchange.ScanSpec{Relation: "R1", HashCol: 0}
					frag.RightScan = &exchange.ScanSpec{Relation: "R2", HashCol: 1}
				} else {
					l, _, err := e.scan("R1", nil)
					if err != nil {
						t.Fatal(err)
					}
					rr, _, err := e.scan("R2", nil)
					if err != nil {
						t.Fatal(err)
					}
					r.left, r.right = &childOp{Operator: l, failAfter: -1}, &childOp{Operator: rr, failAfter: -1}
					if sc.children != nil {
						r.left, r.right = sc.children(l, rr)
					}
					left, right = r.left, r.right
				}
				tr := tp.tr
				if sc.dial {
					tr = tp.deadTr
				}
				r.op, r.joinErr = tr().Join(r.ctx, frag, left, right)
				if (r.joinErr != nil) != (sc.dial && !tp.shipped) {
					t.Fatalf("Join: %v", r.joinErr)
				}
				sc.check(t, r, tp.shipped)
				if r.op != nil {
					closed := make(chan struct{})
					go func() { r.op.Close(); close(closed) }()
					select {
					case <-closed:
					case <-time.After(10 * time.Second):
						buf := make([]byte, 1<<20)
						t.Fatalf("Close did not return\n%s", buf[:runtime.Stack(buf, true)])
					}
				}
				if !tp.shipped {
					if lc, rc := r.left.closed.Load(), r.right.closed.Load(); lc != 1 || rc != 1 {
						t.Errorf("children closed %d and %d times, want once each", lc, rc)
					}
				}
				for _, w := range ws {
					waitWorkerIdle(t, w)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<20)
						t.Fatalf("%d goroutines, %d before the join\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// pullCtx runs op to exhaustion under ctx without closing it.
func pullCtx(ctx context.Context, op Operator) (int, error) {
	rows := 0
	for {
		b, err := op.Next(ctx)
		if b == nil || err != nil {
			return rows, err
		}
		rows += b.Len()
	}
}

// sliceOp yields the batches of a slice.
type sliceOp struct{ batches []Batch }

func (o *sliceOp) Next(context.Context) (Batch, error) {
	if len(o.batches) == 0 {
		return nil, nil
	}
	b := o.batches[0]
	o.batches = o.batches[1:]
	return b, nil
}

func (o *sliceOp) Close() {}
