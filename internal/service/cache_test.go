package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPlanCacheLRUEviction(t *testing.T) {
	evicted := 0
	var c lru[*cacheEntry]
	c.init(3, func() { evicted++ })
	e := func() *cacheEntry { return &cacheEntry{} }
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), e())
	}
	if c.Len() != 3 || evicted != 0 {
		t.Fatalf("len=%d evicted=%d after 3 puts at cap 3", c.Len(), evicted)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 should be resident")
	}
	c.Put("k3", e())
	if evicted != 1 {
		t.Fatalf("expected 1 eviction, got %d", evicted)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if n := c.PurgeWhere(func(k string) bool { return k != "k2" }); n != 2 || c.Len() != 1 || evicted != 1 {
		t.Errorf("purging all but k2 dropped %d, left %d, evictions %d; want 2, 1, 1", n, c.Len(), evicted)
	}
}

// TestPlanCacheCapacityIsExact: a plan cache of capacity N holds N entries,
// and the (N+1)th evicts exactly the least recently used one.
func TestPlanCacheCapacityIsExact(t *testing.T) {
	const capacity = 8
	s := newTestService(t, func(c *Config) { c.CacheCapacity = capacity })
	for i := 0; i < capacity; i++ {
		s.cache.Put(fmt.Sprintf("k%d", i), &cacheEntry{})
	}
	if n, ev := s.cache.Len(), s.met.Evictions.Load(); n != capacity || ev != 0 {
		t.Fatalf("%d resident and %d evictions after %d puts at capacity %d", n, ev, capacity, capacity)
	}
	// Touch every key but k3, so k3 becomes the LRU victim.
	for i := 0; i < capacity; i++ {
		if i == 3 {
			continue
		}
		if _, ok := s.cache.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d should be resident", i)
		}
	}
	s.cache.Put("new", &cacheEntry{})
	if n, ev := s.cache.Len(), s.met.Evictions.Load(); n != capacity || ev != 1 {
		t.Fatalf("%d resident and %d evictions after one more put, want %d and 1", n, ev, capacity)
	}
	for i := 0; i < capacity; i++ {
		if _, ok := s.cache.Get(fmt.Sprintf("k%d", i)); ok == (i == 3) {
			t.Errorf("k%d resident = %t, want only k3 evicted", i, ok)
		}
	}
}

func TestPlanCacheIsConcurrencySafe(t *testing.T) {
	var c lru[*cacheEntry]
	c.init(64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-i%d", g, i%20)
				c.Put(k, &cacheEntry{})
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n == 0 || n > 64 {
		t.Errorf("cache len %d out of bounds (0, 64]", n)
	}
}

func TestPlanCacheOverwriteRefreshes(t *testing.T) {
	var c lru[*cacheEntry]
	c.init(2, nil)
	a, b := &cacheEntry{}, &cacheEntry{}
	c.Put("k", a)
	c.Put("k", b)
	if c.Len() != 1 {
		t.Fatalf("overwrite should not grow the cache, len=%d", c.Len())
	}
	got, _ := c.Get("k")
	if got != b {
		t.Error("overwrite should replace the value")
	}
}

// BenchmarkOptimizeHitParallel serves plan-cache hits from every P at once:
// 5 chain templates × 8 literals, each request taking the text cache's, the
// plan cache's and the profiler's map locks. Run it at -cpu 1,2,… to see
// what those locks cost under contention.
func BenchmarkOptimizeHitParallel(b *testing.B) {
	s := newTestService(b, nil)
	ctx := context.Background()
	var reqs []OptimizeRequest
	for n := 2; n <= 6; n++ {
		for lit := 1; lit <= 8; lit++ {
			req := OptimizeRequest{Query: chainSQL(n, lit)}
			if _, err := s.Optimize(ctx, req); err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	var start atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Goroutines start at different requests, so they do not walk one
		// template in lockstep.
		i := int(start.Add(7))
		for pb.Next() {
			resp, err := s.Optimize(ctx, reqs[i%len(reqs)])
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Cache != "hit" {
				b.Errorf("request %d answered from cache %q, want a hit", i%len(reqs), resp.Cache)
				return
			}
			i++
		}
	})
}
