package exchange

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// TestFrameWriterAllocationPin: once its buffer has grown to the link's frame
// size a frameWriter encodes and writes a batch frame — dense or selected —
// without allocating. A reintroduced per-frame payload slice fails here.
func TestFrameWriterAllocationPin(t *testing.T) {
	dense := vec.FromRows(rowsOf(vec.DefaultBatchRows, 3))
	fw := &frameWriter{w: io.Discard}
	for name, b := range map[string]Batch{"dense": dense, "selected": dense.FilterEq(0, 1)} {
		if err := fw.writeBatch(frameLeft, dense); err != nil { // grow to the largest frame
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = fw.writeBatch(frameLeft, b) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per frame written, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = fw.write(frameCredit, []byte{creditLeft}) }); allocs != 0 {
		t.Errorf("credit: %.1f allocations per frame written, want 0", allocs)
	}
}

// echoJoin is the cheapest fragment there is: the right input is drained and
// every left batch goes back as a result untouched, so what a join over it
// allocates is what the transport allocates.
func echoJoin(frag Fragment, left, right Operator) (Operator, error) {
	return &opFunc{left: left, right: right, next: func(ctx context.Context) (Batch, error) {
		if err := discard(ctx, right); err != nil {
			return nil, err
		}
		return left.Next(ctx)
	}}, nil
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

// TestLoopbackJoinAllocationPin: a streamed join over loopback TCP — scatter,
// gather into the per-link builders, encode, write, read, decode, and the
// results back the same way, coordinator and workers all in this process —
// allocates one slab per batch per hop and otherwise only what scales with
// batches, not rows. 2×60k two-column rows out and 60k back are 180k shipped
// rows of 16 B.
func TestLoopbackJoinAllocationPin(t *testing.T) {
	const n, bs = 60_000, 512
	lb, err := StartLoopback(2, echoJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	var inputs []Batch
	all := vec.FromRows(rowsOf(n, 997))
	for lo := 0; lo < n; lo += bs {
		inputs = append(inputs, all.Window(lo, min(lo+bs, n)))
	}
	stream := func() Operator { return &sliceOp{batches: inputs} }
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: bs}
	run := func() {
		ctx := context.Background()
		j, err := lb.Cluster(ClusterConfig{}).Join(ctx, frag, stream(), stream())
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		got := 0
		for b, err := j.Next(ctx); b != nil || err != nil; b, err = j.Next(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			got += b.Len()
		}
		if got != n {
			t.Fatalf("echo join returned %d of %d rows", got, n)
		}
	}
	run()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*3*n)
	t.Logf("%.1f B allocated per shipped row", perRow)
	// Measured 16.6 B: the receiver's 16 B slab (a 512-row batch is not
	// pooled) and per-batch headers; 19.8 B while every scattered row took
	// 4 B of fresh selection vector. With a payload slice per encode, a body
	// slice per read and a fresh builder slab per frame the same join spent
	// 67.0 B.
	if perRow > 30 {
		t.Errorf("%.1f B allocated per shipped row, ceiling 30", perRow)
	}
}

// TestSentFramesSurviveBuilderRefill: the partition builders and the frame
// buffer are reused the moment a frame is written, while that frame may sit
// unread in the socket behind a slow worker. Every row must still arrive
// exactly once and intact — a frame that aliased a refilled slab would show
// up as duplicated and missing rows.
func TestSentFramesSurviveBuilderRefill(t *testing.T) {
	const n, keyMod = 12_000, 101
	var mu sync.Mutex
	var seen []storage.Row
	slow := func(frag Fragment, left, right Operator) (Operator, error) {
		return &opFunc{left: left, right: right, next: func(ctx context.Context) (Batch, error) {
			if err := discard(ctx, right); err != nil {
				return nil, err
			}
			for {
				b, err := left.Next(ctx)
				if b == nil || err != nil {
					return nil, err
				}
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				seen = b.AppendRows(seen)
				mu.Unlock()
			}
		}}, nil
	}
	lb, err := StartLoopback(2, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	rows := rowsOf(n, keyMod)
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 3, BatchSize: 16}
	if _, err := runJoin(t, lb.Cluster(ClusterConfig{Window: 2}), frag, rows, nil); err != nil {
		t.Fatal(err)
	}
	got, want := multiset(seen), multiset(rows)
	if len(got) != len(want) {
		t.Fatalf("workers received %d rows, %d were sent", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received rows differ from sent rows at %d: %s vs %s", i, got[i], want[i])
		}
	}
}
