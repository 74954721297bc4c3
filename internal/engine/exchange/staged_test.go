package exchange

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// failRightStore serves "L" from the wrapped store but fails "R" fast —
// the shape of the staged-partition leak: the first scan stages its bytes,
// the second dies, and the worker must refund the first side on the error
// path instead of pinning it until process exit.
type failRightStore struct {
	inner Store
}

func (f *failRightStore) ScanPartition(spec ScanSpec, part, parts int) (*vec.Vec, error) {
	if spec.Relation == "R" {
		return nil, errors.New("failRightStore: simulated disk failure")
	}
	return f.inner.ScanPartition(spec, part, parts)
}

// genStore allocates fresh columns on every scan (nothing shared with the
// test), so leaked staged partitions show up as real heap growth.
type genStore struct {
	rows      int
	failRight bool
}

func (g *genStore) ScanPartition(spec ScanSpec, part, parts int) (*vec.Vec, error) {
	if g.failRight && spec.Relation == "R" {
		return nil, errors.New("genStore: simulated disk failure")
	}
	out := &vec.Vec{Cols: make([][]int64, 4)}
	for c := range out.Cols {
		out.Cols[c] = make([]int64, g.rows)
		for i := range out.Cols[c] {
			out.Cols[c][i] = int64(i)
		}
	}
	return out, nil
}

// waitStagedZero polls the worker's staged-bytes gauge back to zero; the
// worker closes its join — and with it the shardOps — after the coordinator
// has seen the fragment end.
func waitStagedZero(t *testing.T, ws *WorkerStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ws.StagedBytes.Load() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("StagedBytes = %d, want 0: staged partitions leaked", ws.StagedBytes.Load())
}

// TestStagedBytesFreedOnScanError: a fragment whose second shipped scan
// fails fast must refund the first side's staged bytes (the leak this PR
// fixes) and report the failure.
func TestStagedBytesFreedOnScanError(t *testing.T) {
	lrows := rowsOf(4_000, 97)
	store := &failRightStore{inner: &memStore{rels: map[string][]storage.Row{"L": lrows}}}
	ws := &WorkerStats{}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: testHashJoin, Store: store, Stats: ws}})
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
		t.Fatal("join with a failing shipped scan succeeded")
	}
	if got := ws.ShippedScans.Load(); got < 1 {
		t.Fatalf("ShippedScans = %d, want ≥1: left side never staged, test proves nothing", got)
	}
	if got := ws.FragmentsFailed.Load(); got < 1 {
		t.Errorf("FragmentsFailed = %d, want ≥1", got)
	}
	waitStagedZero(t, ws)
}

// TestStagedBytesFreedOnCompletion: the gauge returns to zero after a clean
// shipped join — each scan's charge and its shardOp's refund balance out.
func TestStagedBytesFreedOnCompletion(t *testing.T) {
	lrows, rrows := rowsOf(4_000, 97), rowsOf(800, 97)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	ws := &WorkerStats{}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: testHashJoin, Store: store, Stats: ws}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cluster := lb.Cluster(ClusterConfig{
		Owners: map[string][]string{"L": lb.Addrs(), "R": lb.Addrs()},
	})
	j, err := cluster.Join(context.Background(), shippedFrag(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(j)
	if err != nil {
		t.Fatalf("shipped join: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("join produced no rows; fixture broken")
	}
	waitStagedZero(t, ws)
}

// TestStagedBytesFreedOnCancel: cancelling the query's context mid-fragment
// must reach the worker as a cancel frame — by way of the result operator's
// Close — so it abandons the join (Cancelled counter), unwinds, and frees
// every staged partition.
func TestStagedBytesFreedOnCancel(t *testing.T) {
	lrows, rrows := rowsOf(20_000, 97), rowsOf(2_000, 97)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	ws := &WorkerStats{}
	// Window 1, which the fragment carries to the worker: every result batch
	// waits out a credit round trip, so the fragment is still running when the
	// cancel lands.
	lb, err := StartLoopbackWorkers([]*Worker{{Join: testHashJoin, Store: store, Stats: ws}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cluster := lb.Cluster(ClusterConfig{
		Owners: map[string][]string{"L": lb.Addrs(), "R": lb.Addrs()},
		Window: 1,
	})
	errCancel := errors.New("test: query cancelled")
	ctx, cancel := context.WithCancelCause(context.Background())
	j, err := cluster.Join(ctx, shippedFrag(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the fragment to actually stage its partitions before firing
	// the cancel, so the test exercises a genuinely mid-flight abort.
	deadline := time.Now().Add(5 * time.Second)
	for ws.StagedBytes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ws.StagedBytes.Load() == 0 {
		t.Fatal("fragment never staged partition bytes; cannot exercise cancel path")
	}

	start := time.Now()
	cancel(errCancel)
	if _, err := j.Next(ctx); !errors.Is(err, errCancel) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	j.Close()
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("cancel and close returned after %s, want <200ms", elapsed)
	}

	deadline = time.Now().Add(5 * time.Second)
	for ws.Cancelled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := ws.Cancelled.Load(); got < 1 {
		t.Errorf("Cancelled = %d, want ≥1: worker never saw the cancel frame", got)
	}
	waitStagedZero(t, ws)

	// A cancelled query gets no new joins.
	if _, err := cluster.Join(ctx, shippedFrag(1), nil, nil); !errors.Is(err, errCancel) {
		t.Errorf("Join after the cancel: err = %v, want the cancellation cause", err)
	}
}

// TestStagedNoHeapGrowthOnRepeatedFailure: repeated fail-fast fragments must
// not accumulate staged partition memory. genStore allocates ~1.5 MB of
// fresh rows per attempt; pinning them across 20 attempts would blow well
// past the asserted bound.
func TestStagedNoHeapGrowthOnRepeatedFailure(t *testing.T) {
	store := &genStore{rows: 50_000, failRight: true}
	ws := &WorkerStats{}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: testHashJoin, Store: store, Stats: ws}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cluster := lb.Cluster(ClusterConfig{
		Owners: map[string][]string{"L": lb.Addrs(), "R": lb.Addrs()},
	})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		j, err := cluster.Join(context.Background(), shippedFrag(1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collect(j); err == nil {
			t.Fatal("failing fragment succeeded")
		}
	}
	waitStagedZero(t, ws)
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 32<<20 {
		t.Fatalf("heap grew %d bytes across 20 failed fragments, want <32MB: staged partitions leaked", growth)
	}
}

// TestHalfShippedScanFailureDrainsInput: a fragment that ships its right scan
// and streams its left fails at the worker's store before its join starts,
// while the coordinator is still streaming the left side. The worker must
// drain that input behind its error frame: closing on it would reset the
// connection and take the error frame with it, and the coordinator would see
// a dead worker instead of the store's error.
func TestHalfShippedScanFailureDrainsInput(t *testing.T) {
	lrows := rowsOf(20_000, 97)
	store := &failRightStore{inner: &memStore{rels: map[string][]storage.Row{"L": lrows}}}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: testHashJoin, Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	cluster := lb.Cluster(ClusterConfig{})
	frag := Fragment{
		Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 1, BatchSize: 16,
		RightScan: &ScanSpec{Relation: "R", HashCol: 0},
	}
	for i := 0; i < 50; i++ {
		j, err := cluster.Join(context.Background(), frag, streamOf(lrows, frag.BatchSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = collect(j)
		var we *WorkerError
		if !errors.As(err, &we) || errors.Is(err, ErrWorkerDisconnected) || !strings.Contains(err.Error(), "simulated disk failure") {
			t.Fatalf("run %d: err = %v, want the worker's *WorkerError carrying the store's error", i, err)
		}
	}
}
