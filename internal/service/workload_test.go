package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/obs"
	"paropt/internal/obs/workload"
)

func TestNegativeCacheShortCircuitsParseFailures(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	bad := "SELECT * FROM NoSuchRelation"
	for i := 0; i < 3; i++ {
		_, err := s.Optimize(ctx, OptimizeRequest{Query: bad})
		var br badRequestError
		if !errors.As(err, &br) {
			t.Fatalf("attempt %d: want badRequestError, got %v", i, err)
		}
	}
	if got := s.met.TextCacheHits.Load("error"); got != 2 {
		t.Errorf("text-cache failure hits = %d, want 2 (first failure parses, repeats do not)", got)
	}
	if got := s.texts.Len(); got != 1 {
		t.Errorf("text-cache entries = %d, want 1", got)
	}
	// A valid query is unaffected.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 7)}); err != nil {
		t.Fatal(err)
	}
	// A different catalog version re-parses: negative entries are
	// version-relative.
	version, err := s.RegisterSchema("relation NoSuchRelation card=10 pages=1 disk=0\ncolumn NoSuchRelation.a ndv=10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: bad, Catalog: version}); err != nil {
		t.Errorf("query should parse against the new catalog, got %v", err)
	}
}

func TestNegativeCacheLRUBound(t *testing.T) {
	var c lru[error]
	c.init(2, nil)
	c.Put("a", errors.New("ea"))
	c.Put("b", errors.New("eb"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be resident")
	}
	c.Put("c", errors.New("ec")) // evicts b (a was refreshed by the Get)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// poisonedCatalog builds statistics that are wrong about the data: the
// selection column A.s is heavily Zipf-skewed (hot value 0 holds most rows)
// while the optimizer's uniformity assumption predicts Card/NDV rows — so an
// explain-analyze run reports a large row q-error and marks the template
// drifted.
func poisonedCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddRelation(catalog.Relation{
		Name: "A", Card: 2000, Pages: 20, Disk: 0,
		Columns: []catalog.Column{
			{Name: "s", NDV: 100, Width: 8, Skew: 1.0},
			{Name: "b", NDV: 500, Width: 8},
		},
	})
	c.MustAddRelation(catalog.Relation{
		Name: "B", Card: 3000, Pages: 30, Disk: 1,
		Columns: []catalog.Column{
			{Name: "a", NDV: 500, Width: 8},
			{Name: "b", NDV: 800, Width: 8},
		},
	})
	c.MustAddRelation(catalog.Relation{
		Name: "C", Card: 2500, Pages: 25, Disk: 2,
		Columns: []catalog.Column{
			{Name: "a", NDV: 800, Width: 8},
		},
	})
	return c
}

// refreshedCatalog is the statistics refresh: radically different relative
// cardinalities, so the DP search must pick a different join tree.
func refreshedCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddRelation(catalog.Relation{
		Name: "A", Card: 400000, Pages: 4000, Disk: 0,
		Columns: []catalog.Column{
			{Name: "s", NDV: 2, Width: 8},
			{Name: "b", NDV: 500, Width: 8},
		},
	})
	c.MustAddRelation(catalog.Relation{
		Name: "B", Card: 300, Pages: 3, Disk: 1,
		Columns: []catalog.Column{
			{Name: "a", NDV: 300, Width: 8},
			{Name: "b", NDV: 300, Width: 8},
		},
	})
	c.MustAddRelation(catalog.Relation{
		Name: "C", Card: 250000, Pages: 2500, Disk: 2,
		Columns: []catalog.Column{
			{Name: "a", NDV: 800, Width: 8},
		},
	})
	return c
}

const poisonedSQL = "SELECT * FROM A, B, C WHERE A.b = B.a AND B.b = C.a AND A.s = 0"

// analyzePoisoned serves the poisoned template's explain-analyze
// workload.DriftMinSamples times — what it takes the profiler to mark it
// drifted — and returns the first response.
func analyzePoisoned(t *testing.T, s *Service) *ExplainResponse {
	t.Helper()
	var first *ExplainResponse
	for i := 0; i < workload.DriftMinSamples; i++ {
		resp, err := s.Explain(context.Background(), OptimizeRequest{Query: poisonedSQL, Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = resp
		}
	}
	return first
}

// TestSweeperReoptimizesPoisonedEntry is the acceptance scenario: wrong
// statistics are detected by analyze (q-error drift), the operator refreshes
// the catalog, and the refresh's sweep re-optimizes the hot template so the
// next request hits a warm entry with a different plan.
func TestSweeperReoptimizesPoisonedEntry(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Catalog = poisonedCatalog() })
	ctx := context.Background()

	first := analyzePoisoned(t, s)
	if first.Analyze == nil || first.Analyze.MaxQErrRows < 3 {
		t.Fatalf("poisoned statistics should produce a large row q-error, got %+v", first.Analyze)
	}
	if s.Workload().DriftedCount() != 1 {
		t.Fatalf("template should be marked drifted, got %d", s.Workload().DriftedCount())
	}

	// Statistics refresh, which runs one sweep before it returns.
	s.RefreshCatalog(refreshedCatalog())
	if got := s.met.SweepReoptimized.Load(); got != 1 {
		t.Fatalf("sweep should re-optimize 1 template, got %d", got)
	}
	if s.Workload().DriftedCount() != 0 {
		t.Error("sweep should clear the drift mark")
	}

	// The next default-catalog request hits the entry the sweeper installed —
	// no second client-facing search — and serves the refreshed plan.
	searches := s.met.FullSearch.Load()
	second, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Errorf("post-sweep request should hit the refreshed entry, got %q", second.Cache)
	}
	if s.met.FullSearch.Load() != searches {
		t.Error("post-sweep request should not run another search")
	}
	if second.Catalog == first.Catalog {
		t.Error("refresh should move the default catalog version")
	}
	if second.PlanSignature == first.PlanSignature {
		t.Errorf("refreshed statistics should change the chosen plan, still %s", second.PlanSignature)
	}
}

// TestWorkloadEndpointUnderLoad exercises /debug/workload (JSON and text)
// and /metrics concurrently with optimize traffic; run under -race in CI.
func TestWorkloadEndpointUnderLoad(t *testing.T) {
	s := newTestService(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const (
		writers = 4
		perG    = 15
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body, _ := json.Marshal(OptimizeRequest{Query: chainSQL(3+i%3, g*100+i)})
				resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(g)
	}
	// Readers race against the writers by design.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, path := range []string{"/debug/workload", "/debug/workload?format=text&by=latency", "/metrics"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()

	resp, err := http.Get(srv.URL + "/debug/workload?top=2&by=traffic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Fingerprints int                        `json:"fingerprints"`
		Profiles     []workload.ProfileSnapshot `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Fingerprints != 3 {
		t.Errorf("expected 3 templates (literal varies within each), got %d", report.Fingerprints)
	}
	if len(report.Profiles) != 2 {
		t.Fatalf("top=2 should bound profiles, got %d", len(report.Profiles))
	}
	var total int64
	for _, p := range s.Workload().Snapshot() {
		total += p.Count
	}
	if total != writers*perG {
		t.Errorf("profiled %d requests, want %d", total, writers*perG)
	}

	// Text rendering and parameter validation.
	tresp, err := http.Get(srv.URL + "/debug/workload?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(text), "fingerprint") {
		t.Errorf("text report missing header:\n%s", text)
	}
	bresp, err := http.Get(srv.URL + "/debug/workload?by=bogus")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sort key should 400, got %d", bresp.StatusCode)
	}

	// Metrics expose the workload gauges.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(met), "paroptd_workload_fingerprints 3") {
		t.Errorf("metrics missing workload fingerprints gauge:\n%.500s", met)
	}
}

// TestQueryLogAndReplayInProcess: traffic recorded to the query log replays
// deterministically — same daemon configuration, same plan choices.
func TestQueryLogAndReplayInProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	qlog, err := obs.NewSink[workload.Record](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, func(cfg *Config) { cfg.QueryLog = qlog })
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3+i%4, i)}); err != nil {
			t.Fatal(err)
		}
	}
	// One recorded failure; replay must skip it.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: "SELECT * FROM Nope"}); err == nil {
		t.Fatal("expected failure")
	}
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := workload.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("logged %d records, want 9", len(recs))
	}
	if recs[0].PlanSig == "" || recs[0].Fingerprint == "" || recs[0].Kind != "optimize" {
		t.Fatalf("record missing fields: %+v", recs[0])
	}
	if recs[8].Error == "" {
		t.Fatalf("failure record missing error: %+v", recs[8])
	}

	// Replay against a fresh identically-configured service.
	s2 := newTestService(t, nil)
	rep := workload.Replay(recs, func(r workload.Record) workload.Outcome {
		start := time.Now()
		resp, err := s2.Optimize(ctx, OptimizeRequest{Query: r.Query, Catalog: r.Catalog, K: r.K, CostBenefit: r.CostBenefit})
		if err != nil {
			return workload.Outcome{Err: err}
		}
		return workload.Outcome{PlanSig: resp.PlanSignature, ElapsedMicros: time.Since(start).Microseconds()}
	}, false)
	if rep.PlanChanges != 0 || rep.Errors != 0 {
		t.Errorf("deterministic replay regressed:\n%s", rep.Table())
	}
	if rep.PlanMatches != 8 || rep.Skipped != 1 {
		t.Errorf("replay accounting wrong: %+v", rep)
	}
}

// driftedService is a service whose one served template is marked drifted, so
// the sweep of the next refresh has exactly one search to run, under a key no
// request has populated yet.
func driftedService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	s := newTestService(t, func(cfg *Config) {
		cfg.Catalog = poisonedCatalog()
		if mutate != nil {
			mutate(cfg)
		}
	})
	analyzePoisoned(t, s)
	if s.Workload().DriftedCount() != 1 {
		t.Fatal("template should be marked drifted")
	}
	return s
}

// TestDriftMarkWaitsForRefresh is the drift contract: a search is a pure
// function of its inputs, so a drifted template re-searches only when a
// refresh moves the catalog. Until then its requests run no search and the
// mark stays; once RefreshCatalog returns, the next request is a hit on the
// refreshed plan.
func TestDriftMarkWaitsForRefresh(t *testing.T) {
	s := driftedService(t, nil)
	ctx := context.Background()
	first, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	searches := s.met.FullSearch.Load()
	for i := 0; i < 3; i++ {
		if _, err := s.Explain(ctx, OptimizeRequest{Query: poisonedSQL, Analyze: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.met.FullSearch.Load() - searches; got != 0 {
		t.Errorf("a drifted template's requests ran %d searches without a refresh, want 0", got)
	}
	if s.Workload().DriftedCount() != 1 {
		t.Error("without a refresh the drift mark must stay set")
	}

	s.RefreshCatalog(refreshedCatalog())
	searches = s.met.FullSearch.Load()
	next, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	if next.Cache != "hit" || s.met.FullSearch.Load() != searches {
		t.Errorf("the first request after the refresh: cache %q, %d searches, want a hit and none",
			next.Cache, s.met.FullSearch.Load()-searches)
	}
	if next.Catalog == first.Catalog || next.PlanSignature == first.PlanSignature {
		t.Errorf("want the refreshed plan under the new catalog, got %s under %s", next.PlanSignature, next.Catalog)
	}
	if s.Workload().DriftedCount() != 0 {
		t.Error("the refresh's sweep should clear the drift mark")
	}
}

// TestSweepSharesSearchWithConcurrentMiss: a refresh's sweep and a request
// miss of the same key are one flight — the request waits for the sweep's
// search instead of running its own.
func TestSweepSharesSearchWithConcurrentMiss(t *testing.T) {
	s := driftedService(t, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.searchHook = func() {
		started <- struct{}{}
		<-gate
	}
	searches, misses := s.met.FullSearch.Load(), s.met.CacheMisses.Load()

	swept := make(chan int64, 1)
	go func() {
		s.RefreshCatalog(refreshedCatalog())
		swept <- s.met.SweepReoptimized.Load()
	}()
	<-started // the sweep's search holds a worker
	type answer struct {
		resp *OptimizeResponse
		err  error
	}
	served := make(chan answer, 1)
	go func() {
		resp, err := s.Optimize(context.Background(), OptimizeRequest{Query: poisonedSQL})
		served <- answer{resp, err}
	}()
	waitFor(t, func() bool { return s.met.CacheMisses.Load() == misses+1 })
	close(gate)

	if n := <-swept; n != 1 {
		t.Errorf("sweep re-optimized %d templates, want 1", n)
	}
	a := <-served
	if a.err != nil {
		t.Fatal(a.err)
	}
	if got := s.met.FullSearch.Load() - searches; got != 1 {
		t.Errorf("a sweep and a concurrent miss of one key ran %d searches, want 1", got)
	}
	if len(started) != 0 {
		t.Errorf("%d more searches entered the hook", len(started))
	}
}

// TestSweepSkipsWhenPoolFull: sweeps run on the worker pool, so -workers and
// -queue bound them; a refresh whose sweep finds the queue full skips the
// template instead of queueing or searching on the side, and the template's
// next request searches, as after any refresh.
func TestSweepSkipsWhenPoolFull(t *testing.T) {
	s := driftedService(t, func(c *Config) { c.Workers = 1; c.QueueDepth = 1 })
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.searchHook = func() {
		started <- struct{}{}
		<-gate
	}
	results := make(chan error, 2)
	// Two other templates: the first holds the worker, the second the queue slot.
	for i, sql := range []string{"SELECT * FROM A, B WHERE A.b = B.a", "SELECT * FROM B, C WHERE B.b = C.a"} {
		go func() {
			_, err := s.Optimize(context.Background(), OptimizeRequest{Query: sql})
			results <- err
		}()
		if i == 0 {
			<-started
		}
	}
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	searches := s.met.FullSearch.Load()
	s.RefreshCatalog(refreshedCatalog())
	if n := s.met.SweepReoptimized.Load(); n != 0 {
		t.Errorf("sweep against a full pool re-optimized %d templates, want 0", n)
	}
	if s.Workload().DriftedCount() != 0 {
		t.Error("a refresh clears the mark of every template its sweep tried, skipped or not")
	}
	if got := s.met.Rejected.Load(); got != 0 {
		t.Errorf("a skipped sweep is not a rejected request; rejected = %d", got)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	if got := s.met.FullSearch.Load() - searches; got != 2 {
		t.Errorf("%d searches ran while the sweep was skipped, want the 2 requests' only", got)
	}
	resp, err := s.Optimize(context.Background(), OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" || s.met.FullSearch.Load()-searches != 3 {
		t.Errorf("the skipped template's next request: cache %q after %d searches, want a miss that searches",
			resp.Cache, s.met.FullSearch.Load()-searches)
	}
}
