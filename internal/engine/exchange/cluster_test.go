package exchange

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// opFunc adapts a closure to an Operator that owns two inputs — how the
// transport tests write a JoinFunc's result.
type opFunc struct {
	next        func(ctx context.Context) (Batch, error)
	left, right Operator
}

func (o *opFunc) Next(ctx context.Context) (Batch, error) { return o.next(ctx) }
func (o *opFunc) Close()                                  { closeInputs(o.left, o.right) }

// failingJoin is the JoinFunc of a worker that cannot run fragments.
func failingJoin(msg string) JoinFunc {
	return func(Fragment, Operator, Operator) (Operator, error) { return nil, errors.New(msg) }
}

// discard pulls in to exhaustion and drops what it yields.
func discard(ctx context.Context, in Operator) error {
	for {
		if b, err := in.Next(ctx); b == nil || err != nil {
			return err
		}
	}
}

// testHashJoin is a minimal JoinFunc for transport tests: hash join on the
// first key pair, concatenating matching rows into BatchSize-row batches.
func testHashJoin(frag Fragment, left, right Operator) (Operator, error) {
	bs := frag.BatchSize
	if bs <= 0 {
		bs = 256
	}
	var build map[int64][]storage.Row
	var pending []storage.Row
	leftDone := false
	return &opFunc{left: left, right: right, next: func(ctx context.Context) (Batch, error) {
		if build == nil {
			build = map[int64][]storage.Row{}
			for {
				b, err := right.Next(ctx)
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
				for _, r := range b.AppendRows(nil) {
					build[r[frag.RKeys[0]]] = append(build[r[frag.RKeys[0]]], r)
				}
			}
		}
		for len(pending) < bs && !leftDone {
			b, err := left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				leftDone = true
				break
			}
			for _, l := range b.AppendRows(nil) {
				for _, r := range build[l[frag.LKeys[0]]] {
					row := make(storage.Row, 0, len(l)+len(r))
					pending = append(pending, append(append(row, l...), r...))
				}
			}
		}
		if len(pending) == 0 {
			return nil, nil
		}
		n := min(bs, len(pending))
		out := vec.FromRows(pending[:n])
		pending = pending[n:]
		return out, nil
	}}, nil
}

// multiset canonicalizes a row multiset for comparison.
func multiset(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// collect pulls a join's result to exhaustion and closes it, returning the
// merged rows and the error Next reported.
func collect(op Operator) ([]storage.Row, error) {
	defer op.Close()
	var rows []storage.Row
	for {
		b, err := op.Next(context.Background())
		if b == nil || err != nil {
			return rows, err
		}
		rows = b.AppendRows(rows)
	}
}

// runJoin drives a transport end to end and returns the merged rows.
func runJoin(t *testing.T, tr Transport, frag Fragment, lrows, rrows []storage.Row) ([]storage.Row, error) {
	t.Helper()
	op, err := tr.Join(context.Background(), frag, streamOf(lrows, frag.BatchSize), streamOf(rrows, frag.BatchSize))
	if err != nil {
		return nil, err
	}
	return collect(op)
}

func TestLoopbackClusterMatchesLocal(t *testing.T) {
	lb, err := StartLoopback(2, testHashJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 4, BatchSize: 32}
	lrows := rowsOf(5_000, 97)
	rrows := rowsOf(1_000, 97)

	localRows, err := runJoin(t, &Local{Fn: testHashJoin}, frag, lrows, rrows)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	cluster := lb.Cluster(ClusterConfig{Window: 4})
	clusterRows, err := runJoin(t, cluster, frag, lrows, rrows)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if len(localRows) == 0 {
		t.Fatal("join produced no rows; fixture is broken")
	}
	lm, cm := multiset(localRows), multiset(clusterRows)
	if len(lm) != len(cm) {
		t.Fatalf("row counts differ: local %d, cluster %d", len(lm), len(cm))
	}
	for i := range lm {
		if lm[i] != cm[i] {
			t.Fatalf("row %d differs: %s vs %s", i, lm[i], cm[i])
		}
	}

	if got := cluster.Fragments(); got != 4 {
		t.Errorf("Fragments = %d, want 4", got)
	}
	links := cluster.Links()
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	for _, l := range links {
		if l.BytesSent == 0 || l.BytesRecv == 0 || l.BatchesSent == 0 || l.BatchesRecv == 0 {
			t.Errorf("link %s has zero counters: %+v", l.Addr, l)
		}
	}
}

// TestStreamedJoinAnyCoordinatorWindow: a worker sizes its input channels by
// the window the fragment carries. When it sized them by a setting of its own,
// a coordinator window above it deadlocked a hash join: the probe side filled
// the worker's channels, and the build side the join drains first queued
// behind it on the connection.
func TestStreamedJoinAnyCoordinatorWindow(t *testing.T) {
	lb, err := StartLoopback(1, testHashJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 1, BatchSize: 32}
	rows := rowsOf(5_000, 5_000)
	for _, win := range []int{1, 2, DefaultWindow, 64, 256} {
		type result struct {
			rows []storage.Row
			err  error
		}
		done := make(chan result, 1)
		go func() {
			got, err := runJoin(t, lb.Cluster(ClusterConfig{Window: win}), frag, rows, rows)
			done <- result{got, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("window %d: %v", win, r.err)
			}
			if len(r.rows) != len(rows) {
				t.Errorf("window %d: %d rows, want %d", win, len(r.rows), len(rows))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("window %d: join still running after 10s", win)
		}
	}
}

// TestWorkerDisconnectMidStream: a worker that dies mid-join must surface as
// a typed *WorkerError wrapping ErrWorkerDisconnected out of the result's
// Next, with both partitioners unwound (collect's Close waits for them).
func TestWorkerDisconnectMidStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A fake worker: accept, read the fragment frame, die.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				_, _, _ = newFrameReader(conn, MaxFrame).next()
				conn.Close()
			}(conn)
		}
	}()

	cluster := NewCluster([]string{ln.Addr().String()}, ClusterConfig{Window: 2})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 16}
	// Far more input than the send windows hold: only error teardown unblocks
	// the partitioners, so completion itself proves no hang.
	done := make(chan error, 1)
	go func() {
		_, err := runJoin(t, cluster, frag, rowsOf(50_000, 1_000), rowsOf(50_000, 1_000))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the dead worker")
		}
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("err = %v (%T), want *WorkerError", err, err)
		}
		if !errors.Is(err, ErrWorkerDisconnected) {
			t.Errorf("err = %v, want to wrap ErrWorkerDisconnected", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("join hung after worker disconnect")
	}
}

// TestWorkerJoinErrorPropagates: a join function failing on the worker
// reaches the coordinator as a WorkerError carrying the message.
func TestWorkerJoinErrorPropagates(t *testing.T) {
	lb, err := StartLoopback(1, failingJoin("synthetic fragment failure"))
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 16}
	_, err = runJoin(t, lb.Cluster(ClusterConfig{}), frag, rowsOf(100, 10), rowsOf(100, 10))
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WorkerError", err, err)
	}
	if we.Err.Error() != "synthetic fragment failure" {
		t.Errorf("message = %q, want the worker's error text", we.Err)
	}
}

// closeCounter counts the Closes of the operator it wraps.
type closeCounter struct {
	Operator
	closed atomic.Int32
}

func (o *closeCounter) Close() { o.closed.Add(1); o.Operator.Close() }

// TestClusterNoWorkers: joining on an empty cluster fails fast and still
// closes the inputs it was handed, each exactly once.
func TestClusterNoWorkers(t *testing.T) {
	cluster := NewCluster(nil, ClusterConfig{})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 16}
	left := &closeCounter{Operator: streamOf(rowsOf(1_000, 10), 16)}
	right := &closeCounter{Operator: streamOf(nil, 16)}
	if _, err := cluster.Join(context.Background(), frag, left, right); err == nil {
		t.Fatal("expected an error from an empty cluster")
	}
	if l, r := left.closed.Load(), right.closed.Load(); l != 1 || r != 1 {
		t.Fatalf("inputs closed %d and %d times after failed dispatch, want once each", l, r)
	}
}

// TestLocalTransportSmallBatches exercises partition flush boundaries.
func TestLocalTransportSmallBatches(t *testing.T) {
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 3, BatchSize: 1}
	rows, err := runJoin(t, &Local{Fn: testHashJoin}, frag, rowsOf(50, 7), rowsOf(50, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Each key 0..6 appears ⌈50/7⌉ or ⌊50/7⌋ times per side; the join is a
	// per-key cross product.
	want := 0
	per := map[int64]int{}
	for i := 0; i < 50; i++ {
		per[int64(i)%7]++
	}
	for _, n := range per {
		want += n * n
	}
	if len(rows) != want {
		t.Errorf("rows = %d, want %d", len(rows), want)
	}
}
