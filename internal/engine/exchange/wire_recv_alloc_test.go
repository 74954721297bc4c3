//go:build !race

package exchange

import (
	"bytes"
	"runtime"
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
		if err := fw.writeBatch(frameResult, vec.FromRows(rowsOf(rows, 5))); err != nil {
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
