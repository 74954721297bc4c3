package search

import (
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
