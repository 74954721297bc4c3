package exchange

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// testHashJoin is a minimal JoinFunc for transport tests: hash join on the
// first key pair, concatenating matching rows.
func testHashJoin(frag Fragment, left, right <-chan Batch, emit func(Batch) error) error {
	build := map[int64][]storage.Row{}
	for b := range right {
		for _, r := range b.AppendRows(nil) {
			build[r[frag.RKeys[0]]] = append(build[r[frag.RKeys[0]]], r)
		}
	}
	bs := frag.BatchSize
	if bs <= 0 {
		bs = 256
	}
	var out []storage.Row
	for b := range left {
		for _, l := range b.AppendRows(nil) {
			for _, r := range build[l[frag.LKeys[0]]] {
				row := make(storage.Row, 0, len(l)+len(r))
				row = append(append(row, l...), r...)
				out = append(out, row)
				if len(out) == bs {
					if err := emit(vec.FromRows(out)); err != nil {
						drainBatches(left)
						return err
					}
					out = nil
				}
			}
		}
	}
	if len(out) > 0 {
		return emit(vec.FromRows(out))
	}
	return nil
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

// runJoin drives a transport end to end and returns the merged rows.
func runJoin(t *testing.T, tr Transport, frag Fragment, lrows, rrows []storage.Row) ([]storage.Row, error) {
	t.Helper()
	j, err := tr.Join(frag, streamOf(lrows, frag.BatchSize), streamOf(rrows, frag.BatchSize))
	if err != nil {
		return nil, err
	}
	var rows []storage.Row
	for b := range j.Out() {
		rows = b.AppendRows(rows)
	}
	return rows, j.Err()
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

// TestWorkerDisconnectMidStream: a worker that dies mid-join must surface as
// a typed *WorkerError wrapping ErrWorkerDisconnected — and the inputs must
// still drain so upstream producers never hang.
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
				_, _, _ = newFrameReader(conn, DefaultMaxFrame).next()
				conn.Close()
			}(conn)
		}
	}()

	cluster := NewCluster([]string{ln.Addr().String()}, ClusterConfig{Window: 2})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 16}
	// Far more input than the send windows hold: only error teardown lets
	// the partitioners drain it, so completion itself proves no hang.
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
	boom := func(frag Fragment, left, right <-chan Batch, emit func(Batch) error) error {
		drainBatches(left)
		drainBatches(right)
		return errors.New("synthetic fragment failure")
	}
	lb, err := StartLoopback(1, boom)
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

// TestClusterNoWorkers: joining on an empty cluster fails fast and still
// drains the inputs.
func TestClusterNoWorkers(t *testing.T) {
	cluster := NewCluster(nil, ClusterConfig{})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 16}
	in := streamOf(rowsOf(1_000, 10), 16)
	if _, err := cluster.Join(frag, in, streamOf(nil, 16)); err == nil {
		t.Fatal("expected an error from an empty cluster")
	}
	// The input must end up drained even though the join never started.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-in:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("inputs not drained after failed dispatch")
		}
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
