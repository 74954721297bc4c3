package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paropt/internal/parser"
)

// testDDL is a 6-relation chain schema (the acceptance workload).
const testDDL = `
relation R1 card=50000 pages=500 disk=0
column R1.a ndv=50000
column R1.b ndv=2000
relation R2 card=80000 pages=800 disk=1
column R2.a ndv=2000
column R2.b ndv=4000
relation R3 card=60000 pages=600 disk=2
column R3.a ndv=4000
column R3.b ndv=3000
relation R4 card=90000 pages=900 disk=3
column R4.a ndv=3000
column R4.b ndv=5000
relation R5 card=70000 pages=700 disk=0
column R5.a ndv=5000
column R5.b ndv=2500
relation R6 card=40000 pages=400 disk=1
column R6.a ndv=2500
column R6.b ndv=1000
`

// chainSQL joins R1..Rn along the chain with a literal selection on R1.a.
func chainSQL(n int, literal int) string {
	rels := make([]string, n)
	for i := range rels {
		rels[i] = fmt.Sprintf("R%d", i+1)
	}
	var preds []string
	for i := 1; i < n; i++ {
		preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", i, i+1))
	}
	preds = append(preds, fmt.Sprintf("R1.a = %d", literal))
	return "SELECT * FROM " + strings.Join(rels, ", ") + " WHERE " + strings.Join(preds, " AND ")
}

func newTestService(t testing.TB, mutate func(*Config)) *Service {
	t.Helper()
	cat, err := parser.ParseSchema(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Catalog: cat}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestOptimizeMissThenHitRefiltersCoverSet(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()

	first, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.Deduped {
		t.Errorf("first request should be a miss that ran its own search, got cache=%s deduped=%t", first.Cache, first.Deduped)
	}
	if got := s.met.FullSearch.Load(); got != 1 {
		t.Fatalf("first request should run exactly one search, got %d", got)
	}
	if first.CoverSize < 1 {
		t.Fatalf("cached cover set is empty")
	}
	if first.Baseline == nil {
		t.Fatal("response should carry the work-optimal baseline")
	}

	// Same template, different literal, and a work bound the first request
	// did not use: must be served by re-filtering the cached cover set.
	second, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 12345), K: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("literal change altered the fingerprint: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if second.Cache != "hit" || second.Deduped {
		t.Errorf("second request should re-use the cover set, got cache=%s deduped=%t", second.Cache, second.Deduped)
	}
	if got := s.met.FullSearch.Load(); got != 1 {
		t.Errorf("changed-k request must not re-run the search; searches=%d", got)
	}
	if got := s.met.CoverReuse.Load(); got != 1 {
		t.Errorf("cover-reuse counter should be 1, got %d", got)
	}
	if second.Bound == "" {
		t.Error("bounded request should echo the bound name")
	}
	// The §2 bound must hold against the baseline.
	if wo := second.Baseline.Work; second.Summary.Work > 1.5*wo*(1+1e-9) {
		t.Errorf("bounded plan exceeds Wp ≤ 1.5·Wo: work=%g, wo=%g", second.Summary.Work, wo)
	}
	// And the unbounded plan (first) can be no slower than the bounded one.
	if first.Summary.ResponseTime > second.Summary.ResponseTime*(1+1e-9) {
		t.Errorf("unbounded RT %g should be ≤ bounded RT %g",
			first.Summary.ResponseTime, second.Summary.ResponseTime)
	}
}

func TestTightAndLooseBoundsFromOneCoverSet(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	var prevRT float64
	// k = 1 forbids any extra work; growing k can only improve RT. All
	// requests after the first must be answered from the cache.
	for i, k := range []float64{1.0, 1.2, 2.0, 4.0} {
		resp, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7), K: k})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Summary.Work > k*resp.Baseline.Work*(1+1e-9) {
			t.Errorf("k=%g: work %g exceeds %g·Wo=%g", k, resp.Summary.Work, k, k*resp.Baseline.Work)
		}
		if i > 0 && resp.Summary.ResponseTime > prevRT*(1+1e-9) {
			t.Errorf("k=%g: RT %g worse than RT %g at smaller k", k, resp.Summary.ResponseTime, prevRT)
		}
		prevRT = resp.Summary.ResponseTime
	}
	if got := s.met.FullSearch.Load(); got != 1 {
		t.Errorf("all bounds should share one search, got %d", got)
	}
}

func TestSingleflightDeduplicatesConcurrentSearches(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.Workers = 4; c.QueueDepth = 64 })
	const n = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Different literals on purpose: all share one fingerprint.
			_, errs[i] = s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(6, i+1)})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.met.FullSearch.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests should run exactly 1 search, ran %d", n, got)
	}
	if hits, misses := s.met.CacheHits.Load(), s.met.CacheMisses.Load(); hits+misses != n {
		t.Errorf("hits (%d) + misses (%d) should account for all %d requests", hits, misses, n)
	}
}

func TestOverloadRejectsWith429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestService(t, func(c *Config) { c.Workers = 1; c.QueueDepth = 1 })
	s.searchHook = func() {
		started <- struct{}{}
		<-gate
	}

	results := make(chan error, 2)
	// A occupies the single worker (blocked on the gate)...
	go func() {
		_, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(2, 1)})
		results <- err
	}()
	<-started
	// ...B occupies the single queue slot (a different fingerprint, so it
	// cannot piggyback on A's singleflight)...
	go func() {
		_, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(3, 1)})
		results <- err
	}()
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	// ...so C must be rejected immediately.
	_, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(4, 1)})
	if err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := s.met.Rejected.Load(); got != 1 {
		t.Errorf("rejected counter should be 1, got %d", got)
	}

	// Releasing the gate drains A and B successfully.
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued request failed after gate release: %v", err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRequestTimeoutDoesNotAbortSearch(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, func(c *Config) { c.RequestTimeout = 20 * time.Millisecond })
	s.searchHook = func() { <-gate }

	_, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(3, 1)})
	if err != context.DeadlineExceeded {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	// The abandoned search still completes and populates the cache.
	close(gate)
	waitFor(t, func() bool { return s.CacheLen() == 1 })
	resp, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Errorf("follow-up should hit the cache populated by the abandoned search, got %s", resp.Cache)
	}
}

func TestCatalogVersionKeysTheCache(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 1)}); err != nil {
		t.Fatal(err)
	}
	// Same query against a catalog with refreshed statistics: different
	// version, so it must miss and re-search.
	refreshed := strings.Replace(testDDL, "relation R2 card=80000", "relation R2 card=160000", 1)
	resp, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 1), Schema: refreshed})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Errorf("statistics refresh should invalidate via the catalog version; got %s", resp.Cache)
	}
	if got := s.met.FullSearch.Load(); got != 2 {
		t.Errorf("expected 2 searches across catalog versions, got %d", got)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	cases := []OptimizeRequest{
		{Query: ""},
		{Query: "SELECT * FROM Nope"},
		{Query: "not sql"},
		{Query: chainSQL(3, 1), Catalog: "deadbeef"},
		{Query: chainSQL(3, 1), Schema: "relation ???"},
	}
	for i, req := range cases {
		_, err := s.Optimize(ctx, req)
		var bad badRequestError
		if err == nil {
			t.Errorf("case %d: expected error", i)
		} else if !errors.As(err, &bad) {
			t.Errorf("case %d: expected badRequestError, got %T: %v", i, err, err)
		}
	}
	if got := s.met.Errors.Load(); got != int64(len(cases)) {
		t.Errorf("error counter should be %d, got %d", len(cases), got)
	}
}

func TestCloseRejectsNewRequests(t *testing.T) {
	s := newTestService(t, nil)
	s.Close()
	if _, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(3, 1)}); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}
