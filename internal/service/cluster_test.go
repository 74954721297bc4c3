package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs/accuracy"
	"paropt/internal/parser"
	"paropt/internal/placement"
	"paropt/internal/storage"
)

// TestRefreshCatalogRetiresVersion: moving the default catalog must retire
// the previous default — its plan-cache and text-cache entries are swept,
// the catalog itself is dropped, and the retirement is counted.
func TestRefreshCatalogRetiresVersion(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()

	s.mu.RLock()
	v0 := s.defaultVersion
	s.mu.RUnlock()

	// Populate the plan cache and text cache under v0: a template and a
	// failure.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: "SELECT * FROM Nope"}); err == nil {
		t.Fatal("bad query should fail")
	}
	if s.CacheLen() != 1 || s.texts.Len() != 2 {
		t.Fatalf("precondition: cache=%d texts=%d, want 1 and 2", s.CacheLen(), s.texts.Len())
	}

	refreshed := strings.Replace(testDDL, "relation R2 card=80000", "relation R2 card=160000", 1)
	cat, err := parser.ParseSchema(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	v1 := s.RefreshCatalog(cat)
	if v1 == v0 {
		t.Fatal("refreshed catalog should have a new version")
	}
	if got := s.met.CatalogRetired.Load(); got != 1 {
		t.Errorf("CatalogRetired = %d, want 1", got)
	}
	if s.CacheLen() != 0 {
		t.Errorf("retired version's plan-cache entries not swept: %d resident", s.CacheLen())
	}
	if s.texts.Len() != 0 {
		t.Errorf("retired version's text-cache entries not swept: %d resident", s.texts.Len())
	}

	// The retired version is gone: naming it explicitly is now a 400.
	_, err = s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 1), Catalog: v0})
	var bad badRequestError
	if !errors.As(err, &bad) {
		t.Errorf("request against retired version: err = %v, want badRequestError", err)
	}

	// The new default serves (a fresh miss under v1).
	resp, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Catalog != v1 || resp.Cache != "miss" {
		t.Errorf("post-refresh request: catalog=%s cache=%s, want %s/miss", resp.Catalog, resp.Cache, v1)
	}

	// Re-refreshing the same catalog retires nothing (old == new).
	s.RefreshCatalog(cat)
	if got := s.met.CatalogRetired.Load(); got != 1 {
		t.Errorf("idempotent refresh should not retire: CatalogRetired = %d", got)
	}
}

// TestHTTPSchemaDefaultRetiresOldVersion: the /schema "default": true path
// must route through RefreshCatalog and GC the previous default.
func TestHTTPSchemaDefaultRetiresOldVersion(t *testing.T) {
	s, srv := newTestServer(t, nil)
	if _, body := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)}); body == nil {
		t.Fatal("optimize failed")
	}
	if s.CacheLen() != 1 {
		t.Fatalf("precondition: cache=%d, want 1", s.CacheLen())
	}
	refreshed := strings.Replace(testDDL, "relation R2 card=80000", "relation R2 card=160000", 1)
	resp, _ := postJSON(t, srv.URL+"/schema", SchemaRequest{DDL: refreshed, Default: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema refresh: status %d", resp.StatusCode)
	}
	if got := s.met.CatalogRetired.Load(); got != 1 {
		t.Errorf("CatalogRetired = %d, want 1", got)
	}
	if s.CacheLen() != 0 {
		t.Errorf("plan cache should be swept, %d resident", s.CacheLen())
	}
	// Registering without "default" must NOT retire anything.
	again := strings.Replace(testDDL, "relation R3 card=60000", "relation R3 card=120000", 1)
	postJSON(t, srv.URL+"/schema", SchemaRequest{DDL: again})
	if got := s.met.CatalogRetired.Load(); got != 1 {
		t.Errorf("non-default registration retired a version: CatalogRetired = %d", got)
	}
}

// TestClusterMembershipEndpoints drives register/deregister/list over HTTP.
func TestClusterMembershipEndpoints(t *testing.T) {
	_, srv := newTestServer(t, nil)

	resp, body := postJSON(t, srv.URL+"/cluster/register", ClusterRequest{Addr: "10.0.0.2:7200"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	postJSON(t, srv.URL+"/cluster/register", ClusterRequest{Addr: "10.0.0.1:7200"})
	postJSON(t, srv.URL+"/cluster/register", ClusterRequest{Addr: "10.0.0.1:7200"}) // idempotent

	_, body = getBody(t, srv.URL+"/cluster/workers")
	var list struct {
		Workers []string `json:"workers"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 2 || list.Workers[0] != "10.0.0.1:7200" || list.Workers[1] != "10.0.0.2:7200" {
		t.Fatalf("workers = %v, want the two addresses sorted", list.Workers)
	}

	resp, _ = postJSON(t, srv.URL+"/cluster/deregister", ClusterRequest{Addr: "10.0.0.2:7200"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	_, body = getBody(t, srv.URL+"/cluster/workers")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0] != "10.0.0.1:7200" {
		t.Fatalf("workers after deregister = %v", list.Workers)
	}

	// Empty address is a 400.
	resp, _ = postJSON(t, srv.URL+"/cluster/register", ClusterRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty register: status %d, want 400", resp.StatusCode)
	}
}

// TestDistributedAnalyze runs explain-analyze over loopback worker processes
// and checks the per-link traffic surfaces in the daemon's metrics.
func TestDistributedAnalyze(t *testing.T) {
	lb, err := exchange.StartLoopback(2, engine.FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	s := newTestService(t, nil)
	ctx := context.Background()
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}

	// Baseline: the same query analyzed in-process.
	local, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 7), Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 7), Analyze: true, Distributed: true})
	if err != nil {
		t.Fatalf("distributed analyze: %v", err)
	}
	if dist.Analyze == nil {
		t.Fatal("distributed analyze returned no accuracy report")
	}
	// Same plan, same data: identical measured root cardinalities.
	rootRows := func(rep *accuracy.Report) int64 {
		for _, op := range rep.Ops {
			if op.Root {
				return op.ActRows
			}
		}
		return -1
	}
	if lr, dr := rootRows(local.Analyze), rootRows(dist.Analyze); lr != dr || lr < 0 {
		t.Errorf("distributed analyze root rows = %d, in-process = %d", dr, lr)
	}

	if got := s.met.ExchangeFragments.Load(); got == 0 {
		t.Error("no fragments dispatched")
	}
	links := s.linkSnapshots()
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	for _, l := range links {
		if l.BytesSent == 0 || l.BytesRecv == 0 {
			t.Errorf("link %s carried no traffic: %+v", l.Addr, l)
		}
	}

	// No workers registered → a clean 400-class error, not a hang.
	for _, addr := range lb.Addrs() {
		s.DeregisterWorker(addr)
	}
	_, err = s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 8), Analyze: true, Distributed: true})
	var bad badRequestError
	if !errors.As(err, &bad) {
		t.Errorf("no-worker distributed analyze: err = %v, want badRequestError", err)
	}
}

// TestPlacementRefusesOversizedCatalogs: every worker generates its shards
// from the placed catalog's cardinalities, so a placement over more rows than
// an analyze may generate is a 400 and installs nothing.
func TestPlacementRefusesOversizedCatalogs(t *testing.T) {
	s, srv := newTestServer(t, nil)
	if _, err := s.RegisterWorker("w:1", ""); err != nil {
		t.Fatal(err)
	}
	version, err := s.RegisterSchema(bigDDL)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, srv.URL+"/cluster/placement", PlacementRequest{Catalog: version})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "placement refused") {
		t.Fatalf("oversized placement: status %d: %s, want 400", resp.StatusCode, body)
	}
	if s.PlacementFor(version) != nil {
		t.Error("a refused placement must not be installed")
	}
}

// TestPlacementInstallAndShippedAnalyze drives the full placement flow over
// HTTP: install a placement map, bootstrap worker stores from the same
// catalog + seed, and verify a distributed analyze ships leaf scans to the
// workers while producing the in-process result.
func TestPlacementInstallAndShippedAnalyze(t *testing.T) {
	s, srv := newTestServer(t, nil)
	ctx := context.Background()

	// Nothing installed and no workers yet.
	if resp, _ := getBody(t, srv.URL+"/cluster/placement"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before install: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/cluster/placement", PlacementRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("install with no workers: status %d, want 400", resp.StatusCode)
	}

	// Two workers whose stores share the service's catalog and data seed —
	// exactly what paroptw builds from GET /cluster/placement.
	s.mu.RLock()
	version := s.defaultVersion
	cat := s.catalogs[version]
	s.mu.RUnlock()
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: engine.FragmentJoin, Store: placement.NewStore(cat, dataSeed)},
		{Join: engine.FragmentJoin, Store: placement.NewStore(cat, dataSeed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}

	// A plan cached before the placement must not be served after it: the
	// placement fingerprint is part of the cache key.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 7)}); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL+"/cluster/placement", PlacementRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: status %d: %s", resp.StatusCode, body)
	}
	var installed placement.Document
	if err := json.Unmarshal(body, &installed); err != nil {
		t.Fatal(err)
	}
	if installed.Fingerprint == "" || installed.Map == nil {
		t.Fatalf("install response incomplete: %s", body)
	}
	if got, want := len(installed.Map.Assignments), cat.NumRelations(); got != want {
		t.Errorf("placement covers %d relations, want %d", got, want)
	}
	if got, want := len(installed.Snapshot.Relations), cat.NumRelations(); got != want {
		t.Errorf("snapshot carries %d relations, want %d", got, want)
	}
	resp, body = getBody(t, srv.URL+"/cluster/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after install: status %d", resp.StatusCode)
	}
	var fetched placement.Document
	if err := json.Unmarshal(body, &fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.Fingerprint != installed.Fingerprint {
		t.Errorf("GET fingerprint %s != installed %s", fetched.Fingerprint, installed.Fingerprint)
	}

	second, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(3, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "miss" {
		t.Errorf("optimize after placement install served cache=%s, want miss (stale pre-placement plan)", second.Cache)
	}

	local, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(3, 7), Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	frags, shipped := s.met.ExchangeFragments.Load(), s.met.ShippedScans.Load()
	dist, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(3, 7), Analyze: true, Distributed: true})
	if err != nil {
		t.Fatalf("distributed analyze with placement: %v", err)
	}
	// Each join has a base-scan input — seen through the hash join's Build
	// and the merge's Sort — so each ships it and runs one fragment per
	// owning worker: 2 × 2 fragments, the bottom join shipping both sides
	// and the top one its scan side. The merge does so although the
	// annotator gave it one clone: placement, not the annotation, decides
	// where a placed relation is read. Streaming a scan through the
	// coordinator instead changes both counts.
	if got := s.met.ExchangeFragments.Load() - frags; got != 4 {
		t.Errorf("distributed analyze dispatched %d fragments, want 4", got)
	}
	if got := s.met.ShippedScans.Load() - shipped; got != 6 {
		t.Errorf("distributed analyze shipped %d scan sides, want 6", got)
	}
	rootRows := func(rep *accuracy.Report) int64 {
		for _, op := range rep.Ops {
			if op.Root {
				return op.ActRows
			}
		}
		return -1
	}
	if lr, dr := rootRows(local.Analyze), rootRows(dist.Analyze); lr != dr || lr < 0 {
		t.Errorf("shipped analyze root rows = %d, in-process = %d", dr, lr)
	}
	if got := s.placementCount(); got != 1 {
		t.Errorf("placementCount = %d, want 1", got)
	}

	// Retiring the catalog drops its placement.
	refreshed := strings.Replace(testDDL, "relation R2 card=80000", "relation R2 card=160000", 1)
	cat2, err := parser.ParseSchema(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	s.RefreshCatalog(cat2)
	if got := s.placementCount(); got != 0 {
		t.Errorf("placement survived catalog retirement: count = %d", got)
	}
	if resp, _ := getBody(t, srv.URL+"/cluster/placement"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after retirement: status %d, want 404", resp.StatusCode)
	}
}

// TestShippedScanOfAnotherVersionServesItsRows: workers bootstrap their store
// from the default version's placement, so a distributed analyze of another
// registered version that has a placement of its own ships scans to stores
// holding other rows. The stores refuse them as planned against other
// statistics, and the coordinator's fallback, which sources the request's own
// version, returns that version's join.
func TestShippedScanOfAnotherVersionServesItsRows(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	s.mu.RLock()
	catA := s.catalogs[s.defaultVersion]
	s.mu.RUnlock()
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: engine.FragmentJoin, Store: placement.NewStore(catA, dataSeed)},
		{Join: engine.FragmentJoin, Store: placement.NewStore(catA, dataSeed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}
	catB, err := parser.ParseSchema(strings.Replace(testDDL, "relation R2 card=80000", "relation R2 card=40000", 1))
	if err != nil {
		t.Fatal(err)
	}
	versionB := s.RegisterCatalog(catB)
	for _, v := range []string{"", versionB} {
		if _, err := s.InstallPlacement(v, nil); err != nil {
			t.Fatal(err)
		}
	}

	sql := chainSQL(2, 7)
	refRows := func(cat *catalog.Catalog) int64 {
		q, err := parser.ParseQuery(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.ReferenceJoin(&engine.Executor{DB: storage.NewDatabase(cat, dataSeed), Q: q})
		if err != nil {
			t.Fatal(err)
		}
		return int64(ref.Len())
	}
	wantB := refRows(catB)
	if wantB == 0 || wantB == refRows(catA) {
		t.Fatalf("fixture proves nothing: version B's join has %d rows, the default's %d", wantB, refRows(catA))
	}
	out, err := s.Explain(ctx, OptimizeRequest{Query: sql, Catalog: versionB, Analyze: true, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range out.Analyze.Ops {
		if op.Root && op.ActRows != wantB {
			t.Errorf("distributed analyze of the non-default version returned %d rows, its reference join %d", op.ActRows, wantB)
		}
	}
	if s.met.ShippedScans.Load() == 0 {
		t.Error("no scan was shipped; the fixture proves nothing")
	}
}

// TestTraceTellsTheWholeStory: one GET /debug/trace/{id} of a cache-missing,
// distributed explain-analyze over two placed loopback workers answers what
// the request did — the search with its per-layer spans, every operator's
// predicted and measured (tf, tl) with rows and clones, the per-link bytes
// and stall, and the workers' own fragment spans.
func TestTraceTellsTheWholeStory(t *testing.T) {
	s, srv := newTestServer(t, nil)
	s.mu.RLock()
	cat := s.catalogs[s.defaultVersion]
	s.mu.RUnlock()
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: engine.FragmentJoin, Store: placement.NewStore(cat, dataSeed)},
		{Join: engine.FragmentJoin, Store: placement.NewStore(cat, dataSeed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}
	if resp, body := postJSON(t, srv.URL+"/cluster/placement", PlacementRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d: %s", resp.StatusCode, body)
	}

	resp, body := postJSON(t, srv.URL+"/explain?analyze=1&distributed=1", OptimizeRequest{Query: chainSQL(3, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d: %s", resp.StatusCode, body)
	}
	var exp ExplainResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Cache != "miss" {
		t.Fatalf("want a cache miss, got %q", exp.Cache)
	}
	tj := fetchTrace(t, srv.URL, exp.TraceID)

	search := findSpan(tj.Root, "search")
	if search == nil {
		t.Fatal("trace has no search span")
	}
	for _, key := range []string{"source", "relations", "frontier"} {
		if search.Attrs[key] == "" {
			t.Errorf("search span missing %q: %v", key, search.Attrs)
		}
	}
	if n := attrInt(t, search, "relations"); len(layerSpans(search)) != int(n) {
		t.Errorf("search span has %d dp-layer children for %d relations", len(layerSpans(search)), n)
	}

	execute := findSpan(tj.Root, "execute")
	if execute == nil {
		t.Fatal("trace has no execute span")
	}
	joins := 0
	for _, op := range execute.Children {
		if op.Name == "fragment" || strings.HasPrefix(op.Name, "scan(") {
			continue
		}
		joins++
		for _, key := range []string{"predTfMicros", "predTlMicros", "rows", "clones"} {
			if op.Attrs[key] == "" {
				t.Errorf("operator %s missing %q: %v", op.Name, key, op.Attrs)
			}
		}
		if op.FirstMicros == nil || op.EndMicros < *op.FirstMicros {
			t.Errorf("operator %s has no measured (tf, tl): first %v end %d", op.Name, op.FirstMicros, op.EndMicros)
		}
	}
	if joins != 2 {
		t.Errorf("a 3-relation chain runs 2 joins, trace shows %d", joins)
	}
	for _, addr := range lb.Addrs() {
		for _, key := range []string{".sent", ".recv", ".stallMicros"} {
			if execute.Attrs["link."+addr+key] == "" {
				t.Errorf("execute span missing link.%s%s: %v", addr, key, execute.Attrs)
			}
		}
	}
	workers := map[string]bool{}
	for _, c := range execute.Children {
		if c.Name == "fragment" {
			workers[c.Attrs["addr"]] = true
		}
	}
	if len(workers) != 2 {
		t.Errorf("want fragment spans from both workers, got %v", workers)
	}
}

// FuzzClusterBody: any POST body to /cluster/register, /cluster/deregister
// or /cluster/placement ends in a 200, 400 or 404, never a 500 or a panic;
// one padded past placement.MaxBodyBytes is a 400; and an address a 200 registered is
// listed by GET /cluster/workers. Each body meets a fresh service serving the
// test schema with one worker registered, so a placement body reaches
// placement.Build.
func FuzzClusterBody(f *testing.F) {
	cat, err := parser.ParseSchema(testDDL)
	if err != nil {
		f.Fatal(err)
	}
	routes := []string{"/cluster/register", "/cluster/deregister", "/cluster/placement"}
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"addr":"10.0.0.2:7200"}`}, {0, `{"addr":"10.0.0.2:7200","http":"http://10.0.0.2:7300"}`},
		{0, `{"addr":""}`}, {0, `{"addr":7}`}, {1, `{"addr":"w:1"}`}, {1, `{"addr":"nobody"}`},
		{2, `{}`}, {2, `{"columns":{"R1":"b","R2":"a"}}`}, {2, `{"columns":{"R1":"nope"}}`},
		{2, `{"catalog":"nope"}`}, {2, `{"columns":{"Nope":"a"}}`},
		{0, `{"unknown":true}`}, {1, `{`}, {2, ``}, {2, `null`}, {0, "\x00\xff"},
	} {
		f.Add(seed.route, []byte(seed.body), false)
	}
	for i := range routes {
		f.Add(uint8(i), []byte(`{"addr":"w:2"}`), true)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte, oversize bool) {
		s, err := New(Config{Catalog: cat, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.RegisterWorker("w:1", ""); err != nil {
			t.Fatal(err)
		}
		path := routes[int(route)%len(routes)]
		if oversize { // leading whitespace the decoder must read through
			body = append(bytes.Repeat([]byte{' '}, placement.MaxBodyBytes), body...)
		}
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		if oversize && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s of %d bytes: HTTP %d, want 400", path, len(body), rec.Code)
		}
		if path != "/cluster/register" || rec.Code != http.StatusOK {
			return
		}
		var req ClusterRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("a registered body does not decode: %v", err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/workers", nil))
		var list struct {
			Workers []string `json:"workers"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatalf("GET /cluster/workers: %v: %s", err, rec.Body.Bytes())
		}
		if !slices.Contains(list.Workers, req.Addr) {
			t.Fatalf("registered %q, /cluster/workers lists %q", req.Addr, list.Workers)
		}
	})
}
