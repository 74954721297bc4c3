package exchange

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// memStore is a test Store: full relations held in memory, shards computed
// on demand with the same hash/partition functions the stream partitioner
// uses, so shipped and streamed runs agree row-for-row.
type memStore struct {
	rels map[string][]storage.Row
}

func (m *memStore) ScanPartition(spec ScanSpec, part, parts int) (*vec.Vec, error) {
	rows, ok := m.rels[spec.Relation]
	if !ok {
		return nil, errors.New("memStore: unknown relation " + spec.Relation)
	}
	var out []storage.Row
	for _, r := range rows {
		if storage.Partition(r[spec.HashCol], parts) != part {
			continue
		}
		keep := true
		for _, f := range spec.Filters {
			if r[f.Col] != f.Val {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	return fromRows(out), nil
}

// shippedFrag is a fully-shipped two-relation hash-join fragment.
func shippedFrag(parts int) Fragment {
	return Fragment{
		Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: parts, BatchSize: 32,
		LeftScan:  &ScanSpec{Relation: "L", HashCol: 0},
		RightScan: &ScanSpec{Relation: "R", HashCol: 0},
	}
}

// TestShippedJoinMatchesStreamedAndCutsBytes: a fully-shipped fragment must
// produce exactly the streamed result while moving far less through the
// coordinator — the ISSUE's ≥50% byte cut, asserted at the transport layer.
func TestShippedJoinMatchesStreamedAndCutsBytes(t *testing.T) {
	lrows, rrows := rowsOf(5_000, 97), rowsOf(1_000, 97)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	lb, err := StartLoopbackWorkers([]*Worker{
		{Join: testHashJoin, Store: store},
		{Join: testHashJoin, Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	owners := map[string][]string{"L": lb.Addrs(), "R": lb.Addrs()}

	// Baseline: same workers, everything streamed from the coordinator.
	streamedCluster := lb.Cluster(ClusterConfig{})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 32}
	streamedRows, err := runJoin(t, streamedCluster, frag, lrows, rrows)
	if err != nil {
		t.Fatalf("streamed: %v", err)
	}
	if len(streamedRows) == 0 {
		t.Fatal("streamed join produced no rows; fixture broken")
	}

	shippedCluster := lb.Cluster(ClusterConfig{Owners: owners})
	j, err := shippedCluster.Join(context.Background(), shippedFrag(2), nil, nil)
	if err != nil {
		t.Fatalf("shipped dispatch: %v", err)
	}
	shippedRows, err := collect(j)
	if err != nil {
		t.Fatalf("shipped: %v", err)
	}

	if !reflect.DeepEqual(multiset(streamedRows), multiset(shippedRows)) {
		t.Fatalf("shipped rows differ from streamed (%d vs %d rows)",
			len(shippedRows), len(streamedRows))
	}
	if got := shippedCluster.ShippedScans(); got != 4 {
		t.Errorf("ShippedScans = %d, want 4 (2 sides × 2 fragments)", got)
	}
	if got := shippedCluster.Retries(); got != 0 {
		t.Errorf("Retries = %d, want 0 on a healthy cluster", got)
	}

	sent := func(c *Cluster) int64 {
		var n int64
		for _, l := range c.Links() {
			n += l.BytesSent
		}
		return n
	}
	base, shipped := sent(streamedCluster), sent(shippedCluster)
	if shipped*2 > base {
		t.Errorf("coordinator sent %d bytes shipped vs %d streamed; want ≥50%% cut", shipped, base)
	}
}

// TestShippedRetryRedispatchesAndDiscardsStagedResults: the owner of
// partition 0 emits a poison batch and then dies mid-fragment. The
// coordinator must discard the staged partial output, re-dispatch the
// fragment to the surviving worker, and deliver exactly the healthy result.
func TestShippedRetryRedispatchesAndDiscardsStagedResults(t *testing.T) {
	lrows, rrows := rowsOf(2_000, 53), rowsOf(500, 53)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	poison := storage.Row{-1, -1, -1, -1}
	dying := func(frag Fragment, left, right Operator) (Operator, error) {
		emitted := false
		return &opFunc{left: left, right: right, next: func(context.Context) (Batch, error) {
			if !emitted {
				emitted = true
				return fromRows([]storage.Row{poison}), nil // partial output the coordinator must discard
			}
			return nil, errors.New("worker killed mid-fragment")
		}}, nil
	}
	lb, err := StartLoopbackWorkers([]*Worker{
		{Join: dying, Store: store},
		{Join: testHashJoin, Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	addrs := lb.Addrs()

	cluster := lb.Cluster(ClusterConfig{
		Owners:  map[string][]string{"L": addrs, "R": addrs},
		Members: func() ([]string, int64) { return addrs, 7 },
	})
	j, err := cluster.Join(context.Background(), shippedFrag(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(j)
	if err != nil {
		t.Fatalf("join with one dead owner must still complete: %v", err)
	}

	want, err := runJoin(t, &Local{Fn: testHashJoin},
		Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 32},
		lrows, rrows)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if reflect.DeepEqual(r, poison) {
			t.Fatal("staged partial batch from the dead worker leaked into the result")
		}
	}
	if !reflect.DeepEqual(multiset(want), multiset(got)) {
		t.Fatalf("re-dispatched join rows differ (%d vs %d rows)", len(got), len(want))
	}
	if cluster.Retries() < 1 {
		t.Errorf("Retries = %d, want ≥1", cluster.Retries())
	}
	if cluster.Fallbacks() != 0 {
		t.Errorf("Fallbacks = %d, want 0 (a live replica existed)", cluster.Fallbacks())
	}
}

// TestShippedFallbackToCoordinator: when every worker dispatch fails, the
// coordinator sources the partitions from its own store and runs the join
// in-process instead of failing the query.
func TestShippedFallbackToCoordinator(t *testing.T) {
	lrows, rrows := rowsOf(1_000, 31), rowsOf(300, 31)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: failingJoin("no capacity"), Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	addrs := lb.Addrs()

	cluster := lb.Cluster(ClusterConfig{
		Owners:  map[string][]string{"L": addrs, "R": addrs},
		Members: func() ([]string, int64) { return addrs, 1 },
		Store:   store,
		Fn:      testHashJoin,
	})
	j, err := cluster.Join(context.Background(), shippedFrag(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(j)
	if err != nil {
		t.Fatalf("coordinator fallback must complete the join: %v", err)
	}
	want, err := runJoin(t, &Local{Fn: testHashJoin},
		Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 32},
		lrows, rrows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multiset(want), multiset(got)) {
		t.Fatalf("fallback rows differ (%d vs %d rows)", len(got), len(want))
	}
	if cluster.Fallbacks() < 1 {
		t.Errorf("Fallbacks = %d, want ≥1", cluster.Fallbacks())
	}
	// The fallback carries a typed reason (a worker-side join error, not a
	// death or an unreachable host) and synthesizes observable stats.
	reasons := cluster.FallbackReasons()
	if reasons["worker_error"] < 1 {
		t.Errorf("FallbackReasons = %v, want worker_error ≥ 1", reasons)
	}
	sr, ok := j.(StatsReporter)
	if !ok {
		t.Fatalf("shipped join %T does not implement StatsReporter", j)
	}
	// A fallback runs the worker's own fragment runner, so its stats have a
	// worker's span tree and count every row it hands on.
	sawFallback := false
	var rows int64
	for _, fs := range sr.FragmentStats() {
		rows += fs.Rows
		if fs.FallbackReason != "" {
			sawFallback = true
			if fs.Worker != "coordinator" {
				t.Errorf("fallback stats Worker = %q, want coordinator", fs.Worker)
			}
			if fs.Span == nil || fs.Span.Name != "fragment" {
				t.Fatalf("fallback stats missing fragment span: %+v", fs.Span)
			}
			var children []string
			for _, c := range fs.Span.Children {
				children = append(children, c.Name)
			}
			if want := []string{"scan-left", "scan-right", "join"}; !reflect.DeepEqual(children, want) {
				t.Errorf("fallback fragment span children = %v, want %v", children, want)
			}
		}
	}
	if !sawFallback {
		t.Error("no FragmentStats carried a fallback reason")
	}
	if rows != int64(len(got)) {
		t.Errorf("fragment stats count %d rows, the join returned %d", rows, len(got))
	}
}

// TestShippedNoFallbackWithoutStore: every replica dead and no coordinator
// store configured → the typed worker error must surface, not a hang.
func TestShippedNoFallbackWithoutStore(t *testing.T) {
	store := &memStore{rels: map[string][]storage.Row{
		"L": rowsOf(100, 7), "R": rowsOf(100, 7),
	}}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: failingJoin("down"), Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	addrs := lb.Addrs()
	cluster := lb.Cluster(ClusterConfig{
		Owners: map[string][]string{"L": addrs, "R": addrs},
	})
	j, err := cluster.Join(context.Background(), shippedFrag(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(j); err == nil {
		t.Fatal("expected the worker failure to surface without a fallback store")
	} else {
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("err = %v (%T), want *WorkerError", err, err)
		}
	}
	if cluster.Fallbacks() != 0 {
		t.Errorf("Fallbacks = %d, want 0 without Store/Fn", cluster.Fallbacks())
	}
}

// countingListener hands the worker connections that count the bytes the
// worker reads off them — what the coordinator's side actually wrote — and
// lets a test wait until every connection it accepted is closed.
type countingListener struct {
	net.Listener
	read  atomic.Int64
	conns sync.WaitGroup
}

type countingConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	c.once.Do(c.l.conns.Done)
	return c.Conn.Close()
}

// TestShippedLinkMetersEveryFrame: a shipped attempt's link counts exactly
// the bytes its worker reads — the fragment, every result credit and, when
// the join is cancelled, the cancel frame — and the time spent writing them.
func TestShippedLinkMetersEveryFrame(t *testing.T) {
	store := &memStore{rels: map[string][]storage.Row{"L": rowsOf(2_000, 41), "R": rowsOf(400, 41)}}
	blocking := func(frag Fragment, left, right Operator) (Operator, error) {
		return &opFunc{left: left, right: right, next: func(ctx context.Context) (Batch, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}}, nil
	}
	for _, tc := range []struct {
		name   string
		join   JoinFunc
		cancel bool
	}{{"served", testHashJoin, false}, {"cancelled", blocking, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl := &countingListener{Listener: ln}
			ws := &WorkerStats{}
			go (&Worker{Join: tc.join, Store: store, Stats: ws}).Serve(cl) //nolint:errcheck
			defer ln.Close()
			addr := ln.Addr().String()
			cluster := NewCluster([]string{addr}, ClusterConfig{
				Owners: map[string][]string{"L": {addr}, "R": {addr}},
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j, err := cluster.Join(ctx, shippedFrag(1), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cancel {
				for ws.ActiveFragments.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}
			rows, err := collect(j)
			if tc.cancel != (err != nil) || !tc.cancel && len(rows) == 0 {
				t.Fatalf("collect: %d rows, err %v", len(rows), err)
			}
			cl.conns.Wait()
			links := cluster.Links()
			if len(links) != 1 {
				t.Fatalf("links = %+v, want one", links)
			}
			l := links[0]
			if l.BytesSent != cl.read.Load() || l.SendNanos <= 0 {
				t.Errorf("link metered %d bytes sent in %d ns; the worker read %d bytes", l.BytesSent, l.SendNanos, cl.read.Load())
			}
			if !tc.cancel && l.BatchesRecv == 0 {
				t.Error("no result batch crossed the link; no credit was metered")
			}
		})
	}
}
