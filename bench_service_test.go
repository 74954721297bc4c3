// Serving-layer benchmarks: the plan-cache hot path of internal/service.
// BenchmarkServiceCacheMiss pays a full partial-order DP search (plus the
// work-optimal baseline) per request; BenchmarkServiceCacheHit re-filters
// the cached cover set under a per-request work bound. The acceptance
// target is hit ≥ 10× faster than miss on this 6-relation chain.
package paropt_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"paropt"
)

// serviceChainCatalog is a 6-relation chain: R1.b=R2.a, ..., R5.b=R6.a.
func serviceChainCatalog() *paropt.Catalog {
	cat := paropt.NewCatalog()
	cards := []int64{50_000, 80_000, 60_000, 90_000, 70_000, 40_000}
	ndvB := []int64{2_000, 4_000, 3_000, 5_000, 2_500, 1_000}
	prevB := int64(50_000)
	for i, card := range cards {
		cat.MustAddRelation(paropt.Relation{
			Name: fmt.Sprintf("R%d", i+1),
			Columns: []paropt.Column{
				{Name: "a", NDV: prevB, Width: 8},
				{Name: "b", NDV: ndvB[i], Width: 8},
			},
			Card:  card,
			Pages: card / 100,
			Disk:  i % 4,
		})
		prevB = ndvB[i]
	}
	return cat
}

// serviceChainSQL joins the whole chain with a literal selection.
func serviceChainSQL(literal int) string {
	var preds []string
	for i := 1; i < 6; i++ {
		preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", i, i+1))
	}
	preds = append(preds, fmt.Sprintf("R1.a = %d", literal))
	return "SELECT * FROM R1, R2, R3, R4, R5, R6 WHERE " + strings.Join(preds, " AND ")
}

func newBenchService(b *testing.B, mutate func(*paropt.ServiceConfig)) *paropt.Service {
	b.Helper()
	cfg := paropt.ServiceConfig{Catalog: serviceChainCatalog()}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := paropt.NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	return svc
}

// tracingOff disables the request tracer; the headline benchmarks measure
// the untraced fast path, the *Traced variants measure the overhead of the
// default (tracing-on) configuration.
func tracingOff(cfg *paropt.ServiceConfig) { cfg.TraceCapacity = -1 }

func benchServiceCacheMiss(b *testing.B, mutate func(*paropt.ServiceConfig)) {
	svc := newBenchService(b, mutate)
	ctx := context.Background()
	req := paropt.OptimizeRequest{Query: serviceChainSQL(7)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.InvalidateCache()
		if _, err := svc.Optimize(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(svc.Metrics().FullSearch.Load())/float64(b.N), "searches/op")
}

func benchServiceCacheHit(b *testing.B, mutate func(*paropt.ServiceConfig)) {
	svc := newBenchService(b, mutate)
	ctx := context.Background()
	if _, err := svc.Optimize(ctx, paropt.OptimizeRequest{Query: serviceChainSQL(0)}); err != nil {
		b.Fatal(err) // warm the cache
	}
	ks := []float64{0, 1.2, 1.5, 2, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := paropt.OptimizeRequest{Query: serviceChainSQL(i + 1), K: ks[i%len(ks)]}
		resp, err := svc.Optimize(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cache != "hit" {
			b.Fatalf("iteration %d missed the cache", i)
		}
	}
	b.StopTimer()
	if got := svc.Metrics().FullSearch.Load(); got != 1 {
		b.Fatalf("hit benchmark ran %d searches, want 1", got)
	}
	b.ReportMetric(float64(svc.Metrics().CoverReuse.Load())/float64(b.N), "reuses/op")
}

// BenchmarkServiceCacheMiss is the cold path: every request runs the DP
// search and the work-optimal baseline from scratch. Tracing off.
func BenchmarkServiceCacheMiss(b *testing.B) { benchServiceCacheMiss(b, tracingOff) }

// BenchmarkServiceCacheMissTraced is the same cold path with the default
// request tracer recording a span tree per request.
func BenchmarkServiceCacheMissTraced(b *testing.B) { benchServiceCacheMiss(b, nil) }

// BenchmarkServiceCacheHit is the warm path: parameter-varying instances of
// one template with per-request work bounds, every one answered by
// re-filtering the cached cover set. Tracing off.
func BenchmarkServiceCacheHit(b *testing.B) { benchServiceCacheHit(b, tracingOff) }

// BenchmarkServiceCacheHitTraced is the same warm path with the default
// request tracer recording a span tree per request.
func BenchmarkServiceCacheHitTraced(b *testing.B) { benchServiceCacheHit(b, nil) }

// TestServiceCacheHitAllocBudget pins the warm hit path where CI sees it: a
// hit is parse + fingerprint + cache lookup + re-filter + a reference to the
// chosen member's rendered bytes. Before those bytes were memoized per cover
// member this benchmark allocated 71 KB and 621 objects per hit (SelectBounded
// 44.6 KB, ExplainJSON 15.4 KB); a regression that re-materializes or
// re-renders a plan per hit lands far outside the budget.
func TestServiceCacheHitAllocBudget(t *testing.T) {
	res := testing.Benchmark(BenchmarkServiceCacheHit)
	if b, n := res.AllocedBytesPerOp(), res.AllocsPerOp(); b > 12<<10 || n > 150 {
		t.Fatalf("warm Service.Optimize hit allocates %d B/op in %d allocs/op; budget is 12 KB and 150", b, n)
	}
}
