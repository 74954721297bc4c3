// The race detector's instrumentation changes what allocates, so the
// allocation budget is checked without it.

//go:build !race

package service

import (
	"context"
	"testing"
)

// TestHitAllocBudget pins what one in-process plan-cache hit allocates end
// to end — admission, context, phases, record — with tracing on and off. A
// served request is one object, its own live-registry entry.
func TestHitAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		traces int
		budget float64
	}{{"traced", 0, 30}, {"untraced", -1, 17}} {
		t.Run(c.name, func(t *testing.T) {
			s := newTestService(t, func(cfg *Config) { cfg.TraceCapacity = c.traces })
			ctx := context.Background()
			if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 1)}); err != nil {
				t.Fatal(err)
			}
			req := OptimizeRequest{Query: chainSQL(6, 12345), K: 1.5}
			allocs := testing.AllocsPerRun(200, func() {
				if resp, err := s.Optimize(ctx, req); err != nil || resp.Cache != "hit" {
					t.Fatalf("want a hit, got %+v, %v", resp, err)
				}
			})
			t.Logf("%s hit: %.0f allocations", c.name, allocs)
			if allocs > c.budget {
				t.Fatalf("a %s hit allocates %.0f times, want at most %.0f", c.name, allocs, c.budget)
			}
		})
	}
}
