package search

import (
	"runtime"
	"testing"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// benchOptions builds one reusable option set for the PODP benchmarks (the
// searcher itself is rebuilt per iteration; the model and workload are not).
func benchOptions(tb testing.TB) Options {
	tb.Helper()
	cfg := query.DefaultGenConfig()
	cfg.Relations = 6
	cfg.Shape = query.Chain
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		tb.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	return Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}
}

// BenchmarkPODP is the search baseline: a 6-relation chain, left-deep. The
// layer records are its only telemetry, so there is no traced variant.
func BenchmarkPODP(b *testing.B) {
	opt := benchOptions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(opt).PODPLeftDeep(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchAllocBudget pins what pricing by composition bought on the
// BenchmarkPODP query: 2.19 M allocations and 198 MB per search, against
// 6.28 M and 559 MB when every candidate's whole tree was expanded, annotated
// and costed. The budgets sit ≈ 10 % above today's figures.
func TestSearchAllocBudget(t *testing.T) {
	opt := benchOptions(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(opt).PODPLeftDeep(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, mb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6
	t.Logf("%d allocations, %.1f MB", allocs, mb)
	if allocs > 2_400_000 || mb > 215 {
		t.Errorf("one 6-relation chain search made %d allocations / %.1f MB, budget 2.4 M / 215 MB", allocs, mb)
	}
}
