package service

import (
	"fmt"
	"sync"
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

func TestPlanCacheShardingIsConcurrencySafe(t *testing.T) {
	c := newPlanCache(64, nil)
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
	c := newPlanCache(2, nil)
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
