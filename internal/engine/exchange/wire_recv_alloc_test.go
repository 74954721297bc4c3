//go:build !race

package exchange

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"paropt/internal/vec"
)

// TestFrameReceiveAllocationPin: receiving a full-sized batch — next, then
// decodeBatch — whose predecessor was released allocates its headers and
// nothing else: the Vec with its claim count, the column headers and the
// chunk list, no values. The columns are the chunks the released predecessor
// handed back and the frame body lands in the reader's reused buffer; a
// per-frame slab or body slice costs 8·rows·width bytes and fails here.
// (Built without -race: the race detector's sync.Pool drops chunks on
// purpose.)
func TestFrameReceiveAllocationPin(t *testing.T) {
	const rows, width, frames = vec.DefaultBatchRows, 2, 256
	var stream bytes.Buffer
	fw := &frameWriter{w: &stream}
	for i := 0; i < frames+2; i++ { // AllocsPerRun runs once more than asked, and one warm-up below
		if err := fw.writeBatch(frameResult, fromRows(rowsOf(rows, 5))); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&stream, MaxFrame)
	recv := func() {
		_, payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeBatch(payload)
		if err != nil || b.Len() != rows {
			t.Fatalf("decode: %v", err)
		}
		b.Release()
	}
	recv() // grows the body buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(frames, recv)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames+1)
	t.Logf("%.0f B and %.1f allocations per received %d×%d frame", perFrame, allocs, rows, width)
	if allocs > 3 {
		t.Errorf("%.1f allocations per received frame, ceiling 3", allocs)
	}
	if ceiling := 256.0; perFrame > ceiling {
		t.Errorf("%.0f B allocated per received frame, ceiling %.0f", perFrame, ceiling)
	}
}

// TestWarmFragmentAllocatesNoFrameBuffer: a connection's frame buffers — the
// frame writer's and the frame reader's body at either end, grown to the
// largest frame — and its buffered reader go back to their pools when its
// fragment ends, so a warm process's fragment round trip allocates none. A
// streamed 1-partition echo of one full 8-column batch over loopback TCP,
// coordinator and worker both in this process, must allocate less in all
// than one such frame (64 KiB); four fresh buffers of that size a round trip
// fail here. The warm-up runs round trips side by side, so the pools hold
// buffers enough for a worker that hands its back just after the next
// fragment has started.
func TestWarmFragmentAllocatesNoFrameBuffer(t *testing.T) {
	const width = 8
	lb, err := StartLoopback(1, echoJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, vec.DefaultBatchRows)
		for r := range cols[c] {
			cols[c][r] = int64(r * (c + 1))
		}
	}
	batch := &vec.Vec{Cols: cols}
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 1}
	cluster := lb.Cluster(ClusterConfig{})
	roundTrip := func() error {
		ctx := context.Background()
		j, err := cluster.Join(ctx, frag, &sliceOp{batches: []Batch{batch}}, &sliceOp{})
		if err != nil {
			return err
		}
		defer j.Close()
		rows := 0
		for {
			b, err := j.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			rows += b.Len()
			b.Release()
		}
		if rows != vec.DefaultBatchRows {
			return fmt.Errorf("echo returned %d rows", rows)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := roundTrip(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := roundTrip(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / runs
	frame := 5 + 8 + 8*width*vec.DefaultBatchRows
	t.Logf("%.0f B allocated per warm fragment round trip; one %d-column batch frame is %d B", perTrip, width, frame)
	if perTrip >= float64(frame) {
		t.Errorf("a warm fragment round trip allocated %.0f B, at least one frame buffer (%d B)", perTrip, frame)
	}
}
