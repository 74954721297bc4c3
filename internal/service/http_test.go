package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paropt/internal/engine"
	"paropt/internal/machine"
	"paropt/internal/parser"
	"paropt/internal/storage"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, mutate)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metricValue extracts one sample value from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPOptimizeExplainHealthzMetrics(t *testing.T) {
	_, srv := newTestServer(t, nil)

	// Miss, then a changed-k hit: the acceptance path asserted through the
	// public HTTP surface, including the cover-set-reuse counter.
	resp, body := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(6, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	var first OptimizeResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.Fingerprint == "" || len(first.Plan) == 0 {
		t.Errorf("unexpected first response: cache=%s fp=%q planBytes=%d", first.Cache, first.Fingerprint, len(first.Plan))
	}

	resp, body = postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(6, 99), K: 1.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize(k=1.5): %d: %s", resp.StatusCode, body)
	}
	var second OptimizeResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.Deduped {
		t.Errorf("changed-k request should re-use the cover set: %s", body)
	}

	// /explain returns the text report and the cost breakdown.
	resp, body = postJSON(t, srv.URL+"/explain", OptimizeRequest{Query: chainSQL(6, 7), K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d: %s", resp.StatusCode, body)
	}
	var exp ExplainResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.Text, "operator tree:") || !strings.Contains(exp.Text, "response time:") {
		t.Errorf("explain text missing sections:\n%s", exp.Text)
	}
	if exp.Breakdown == "" {
		t.Error("explain should include the cost breakdown table")
	}

	// /healthz liveness.
	resp, body = getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Errorf("healthz: %d: %s", resp.StatusCode, body)
	}

	// /metrics: the acceptance counters. 3 requests so far: 1 full search,
	// 2 answered from the cached cover set (changed-k optimize + explain).
	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	if got := metricValue(t, text, "paroptd_full_search_total"); got != 1 {
		t.Errorf("full_search_total = %g, want 1", got)
	}
	if got := metricValue(t, text, "paroptd_cover_reuse_total"); got != 2 {
		t.Errorf("cover_reuse_total = %g, want 2", got)
	}
	if got := metricValue(t, text, "paroptd_cache_hits_total"); got != 2 {
		t.Errorf("cache_hits_total = %g, want 2", got)
	}
	if got := metricValue(t, text, "paroptd_optimize_latency_seconds_count"); got != 3 {
		t.Errorf("latency count = %g, want 3", got)
	}
	if strings.Contains(text, "{quantile=") {
		t.Error("quantile samples are not legal under a histogram TYPE; the buckets carry the distribution")
	}
}

func TestHTTPSchemaRegistrationAndUse(t *testing.T) {
	// No default catalog: everything goes through /schema.
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Query without any catalog → 400.
	resp, body := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("expected 400 without a catalog, got %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL+"/schema", SchemaRequest{DDL: testDDL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema: %d: %s", resp.StatusCode, body)
	}
	var sr SchemaResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Relations != 6 || sr.Catalog == "" {
		t.Fatalf("unexpected schema response: %+v", sr)
	}

	// Optimize against the registered version explicitly.
	resp, body = postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1), Catalog: sr.Catalog})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize with catalog version: %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Catalog != sr.Catalog {
		t.Errorf("response catalog %q should echo registered version %q", or.Catalog, sr.Catalog)
	}

	// Unknown version → 400.
	resp, _ = postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1), Catalog: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown catalog version should be 400, got %d", resp.StatusCode)
	}
}

func TestHTTPConcurrentIdenticalRequestsSearchOnce(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 4 })
	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(6, i+1)})
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if got := s.met.FullSearch.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d searches, want exactly 1 (singleflight)", n, got)
	}
}

func TestHTTPOverloadReturns429AndQueueMetric(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueDepth = 1 })
	s.searchHook = func() {
		started <- struct{}{}
		<-gate
	}

	done := make(chan int, 2)
	post := func(sql string) {
		resp, _ := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: sql})
		done <- resp.StatusCode
	}
	go post(chainSQL(2, 1)) // occupies the worker
	<-started
	go post(chainSQL(3, 1)) // occupies the queue slot
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	// Queue-depth gauge is visible while the system is saturated.
	_, body := getBody(t, srv.URL+"/metrics")
	if got := metricValue(t, string(body), "paroptd_queue_depth"); got != 1 {
		t.Errorf("queue_depth = %g, want 1", got)
	}

	resp, _ := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(4, 1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 under overload, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if c := <-done; c != http.StatusOK {
			t.Errorf("gated request finished with %d", c)
		}
	}
	_, body = getBody(t, srv.URL+"/metrics")
	if got := metricValue(t, string(body), "paroptd_rejected_total"); got != 1 {
		t.Errorf("rejected_total = %g, want 1", got)
	}
}

func TestHTTPMethodAndBodyErrors(t *testing.T) {
	_, srv := newTestServer(t, nil)
	// Wrong method.
	resp, err := http.Get(srv.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize should be 405, got %d", resp.StatusCode)
	}
	// Malformed body.
	resp, err = http.Post(srv.URL+"/optimize", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body should be 400, got %d", resp.StatusCode)
	}
}

// TestHTTPAnalyzeRunsRequestLiteralsOnCacheHit: instances of one template
// share a plan-cache entry, but /explain?analyze=1 must execute the
// *request's* selection literals — the second request is a cache hit on an
// entry whose optimizer was built from the first request's query. Both root
// row counts must equal the brute-force reference for their own literal.
func TestHTTPAnalyzeRunsRequestLiteralsOnCacheHit(t *testing.T) {
	const ddl = `relation A card=400 pages=8 disk=0
column A.k ndv=40
column A.v ndv=4
relation B card=300 pages=6 disk=1
column B.k ndv=40
column B.w ndv=7
`
	cat, err := parser.ParseSchema(ddl)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServer(t, func(c *Config) { c.Catalog = cat })
	db := storage.NewDatabase(cat, dataSeed)

	rootRows := func(lit int, wantCache string) int64 {
		t.Helper()
		sql := fmt.Sprintf("SELECT * FROM A, B WHERE A.k = B.k AND A.v = %d", lit)
		resp, body := postJSON(t, srv.URL+"/explain?analyze=1", OptimizeRequest{Query: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain analyze (literal %d): %d: %s", lit, resp.StatusCode, body)
		}
		var out ExplainResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cache != wantCache {
			t.Fatalf("literal %d: cache = %s, want %s", lit, out.Cache, wantCache)
		}
		q, err := parser.ParseQuery(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.ReferenceJoin(&engine.Executor{DB: db, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range out.Analyze.Ops {
			if op.Root {
				if op.ActRows != int64(ref.Len()) {
					t.Errorf("literal %d: root actRows = %d, reference join has %d", lit, op.ActRows, ref.Len())
				}
				return op.ActRows
			}
		}
		t.Fatalf("literal %d: analyze report has no root operator", lit)
		return 0
	}
	first := rootRows(1, "miss")
	second := rootRows(2, "hit")
	if first == second {
		t.Fatalf("fixture does not separate the literals: both return %d rows", first)
	}
}

// TestHTTPAnalyzeParallelIsACap: analyzeParallel only caps the clone degrees
// the annotator chose, which never exceed the model's CPUs — a client asking
// for a billion partitions gets the plan's own degrees, not a billion
// channels, goroutines or worker connections per join.
func TestHTTPAnalyzeParallelIsACap(t *testing.T) {
	s, srv := newTestServer(t, nil)
	cpus := s.mcfg.CPUs
	if cpus != 4 {
		t.Fatalf("default model has %d CPUs; the fixture assumes 4", cpus)
	}
	var rows []int64
	for _, par := range []int{64, 1 << 30} {
		resp, body := postJSON(t, srv.URL+"/explain?analyze=1", OptimizeRequest{Query: chainSQL(3, 7), AnalyzeParallel: par})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyzeParallel %d: status %d: %s", par, resp.StatusCode, body)
		}
		var out ExplainResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		cloned := false
		for _, op := range out.Analyze.Ops {
			if op.Clones < 1 || op.Clones > cpus {
				t.Errorf("analyzeParallel %d: %s ran %d clones, want 1..%d", par, op.Label, op.Clones, cpus)
			}
			cloned = cloned || op.Clones > 1
			if op.Root {
				rows = append(rows, op.ActRows)
			}
		}
		if !cloned {
			t.Errorf("analyzeParallel %d: no operator ran cloned; the fixture proves nothing", par)
		}
	}
	if len(rows) != 2 || rows[0] != rows[1] {
		t.Errorf("root actRows per request = %v, want two equal counts", rows)
	}
}

// TestMultiNodeAnalyzeRunsAnnotatedDegrees: on a shared-nothing machine the
// annotator spreads a join over the CPUs of every node, so an analyze that
// names no cap runs it that wide — not capped at one node's CPU count.
func TestMultiNodeAnalyzeRunsAnnotatedDegrees(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.Machine = machine.Config{CPUs: 2, Disks: 2, Nodes: 3} })
	out, err := s.Explain(context.Background(), OptimizeRequest{Query: chainSQL(3, 7), Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for _, op := range out.Analyze.Ops {
		widest = max(widest, op.Clones)
	}
	if widest <= s.mcfg.CPUs || widest > s.mcfg.CPUs*s.mcfg.Nodes {
		t.Errorf("widest operator ran %d clones, want more than one node's %d CPUs and at most all %d",
			widest, s.mcfg.CPUs, s.mcfg.CPUs*s.mcfg.Nodes)
	}
}

// FuzzSchemaBody: any POST /schema body ends in a 200 or a 400, never a 500
// or a panic, and a 200's catalog version is one a following /optimize
// naming it accepts (a query that does not parse against it may still 400,
// but never as an unknown catalog). Each body meets a fresh service serving
// the test schema, so the "default": true seeds drive RefreshCatalog →
// retireCatalog against a live default.
func FuzzSchemaBody(f *testing.F) {
	cat, err := parser.ParseSchema(testDDL)
	if err != nil {
		f.Fatal(err)
	}
	for _, ddl := range []string{testDDL, smallDDL, wideDDL} {
		for _, def := range []bool{false, true} {
			seed, _ := json.Marshal(SchemaRequest{DDL: ddl, Default: def})
			f.Add(seed)
		}
	}
	for _, seed := range []string{
		`{"ddl":"relation A card=0 pages=0 disk=0\ncolumn A.k ndv=0\n","default":true}`,
		`{"ddl":"relation A card=-1 pages=1 disk=9\n"}`,
		`{"ddl":"column A.k ndv=3\n"}`, `{"ddl":""}`, `{"ddl":1}`, `{"default":true}`, `{"unknown":true}`, `{`, ``, `null`, "\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Catalog: cat, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/schema", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusBadRequest:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("POST /schema: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		var out SchemaResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Catalog == "" {
			t.Fatalf("POST /schema: 200 body %q: %v", rec.Body.Bytes(), err)
		}
		sql := "SELECT * FROM A"
		s.mu.RLock()
		if cat := s.catalogs[out.Catalog]; cat != nil && cat.NumRelations() > 0 {
			sql = "SELECT * FROM " + cat.RelationNames()[0]
		}
		s.mu.RUnlock()
		req, _ := json.Marshal(OptimizeRequest{Query: sql, Catalog: out.Catalog})
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/optimize", bytes.NewReader(req)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "unknown catalog"):
		default:
			t.Fatalf("POST /optimize %s against catalog %s: HTTP %d: %s", sql, out.Catalog, rec.Code, rec.Body.Bytes())
		}
	})
}
