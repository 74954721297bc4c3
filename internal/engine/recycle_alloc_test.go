//go:build !race

package engine

import (
	"runtime"
	"testing"

	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
)

// TestRunRecyclesBatches pins what a warm measured run allocates: Run of a
// 4-relation hash chain — serial, cloned at Parallel 2, and over a 2-worker
// loopback cluster, whose workers run in this process and count too — takes
// every intermediate and result batch, every join's buffer and table, every
// selection slab and every link's frame buffers from what finished readers
// handed back, so what it allocates per result row is per-batch and
// per-fragment headers spread over the fan-out: measured 1.2, 2.2–2.4 and
// 3.8–6.6 B at -cpu 1,2,4 on 2 cores (12.2, 18.4 and 29.0 B, under ceilings
// of 16, 24 and 36, while build state, selection slabs and frame buffers
// were fresh per request) — a slab per batch at the root alone costs the
// 64 B of one 8-column result row. (Built without -race: the race detector's
// sync.Pool drops chunks on purpose.)
func TestRunRecyclesBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over a 4-relation chain")
	}
	lb, err := exchange.StartLoopback(2, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	e, est := rig(t, 20_000, 20_000, 20_000, 20_000)
	for _, tab := range e.DB.Tables {
		tab.Columns()
	}
	p := leaf(t, est, "R1")
	for _, rel := range []string{"R2", "R3", "R4"} {
		p = join(t, est, p, leaf(t, est, rel), plan.HashJoin)
	}
	root := e.expand(p)
	for _, path := range []struct {
		name      string
		parallel  int
		transport exchange.Transport
		ceiling   float64 // B per result row
	}{{"serial", 1, nil, 2}, {"parallel-2", 2, nil, 4}, {"cluster", 2, lb.Cluster(exchange.ClusterConfig{}), 10}} {
		t.Run(path.name, func(t *testing.T) {
			e.Parallel, e.Transport = path.parallel, path.transport
			defer func() { e.Parallel, e.Transport = 1, nil }()
			rows := 0
			run := func() {
				n, err := e.Run(root)
				if err != nil {
					t.Fatal(err)
				}
				rows = n
			}
			run() // fills the pool
			const runs = 4
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*rows)
			t.Logf("%d result rows: %.1f B allocated per result row", rows, perRow)
			if rows < 100_000 {
				t.Fatalf("fixture chain returned %d rows", rows)
			}
			if perRow > path.ceiling {
				t.Errorf("%.1f B allocated per result row, ceiling %.0f", perRow, path.ceiling)
			}
		})
	}
}
