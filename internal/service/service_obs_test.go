package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"paropt/internal/obs"
)

// findSpan walks a rendered trace tree for a span by name (depth-first).
func findSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

func TestOptimizeProducesTraceTree(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()

	miss, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if miss.TraceID == "" {
		t.Fatal("tracing is on by default; response should carry a trace ID")
	}
	tr := s.Tracer().Get(miss.TraceID)
	if tr == nil {
		t.Fatalf("trace %q not retained", miss.TraceID)
	}
	j := tr.JSON()
	if j.Root.Name != "optimize" {
		t.Errorf("root span = %q, want optimize", j.Root.Name)
	}
	if j.Root.EndMicros < 0 {
		t.Error("root span should be closed after the response")
	}
	for _, phase := range []string{"parse", "search", "select", "render"} {
		sp := findSpan(j.Root, phase)
		if sp == nil {
			t.Errorf("trace missing %q span", phase)
			continue
		}
		if sp.EndMicros < 0 {
			t.Errorf("%q span left open", phase)
		}
	}
	// The search span carries DP events and counters from the span tracer.
	search := findSpan(j.Root, "search")
	if search != nil {
		if search.Attrs["plansConsidered"] == "" || search.Attrs["frontier"] == "" {
			t.Errorf("search span missing DP counters: %v", search.Attrs)
		}
		if findSpan(search, "dp-layer-2") == nil {
			t.Error("search span should contain per-layer DP event spans")
		}
	}
	if j.Root.Attrs["cache"] != "miss" || j.Root.Attrs["fingerprint"] == "" {
		t.Errorf("root attrs = %v", j.Root.Attrs)
	}

	hit, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 8), K: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if hit.TraceID == miss.TraceID {
		t.Error("each request gets its own trace")
	}
	hj := s.Tracer().Get(hit.TraceID).JSON()
	if hj.Root.Attrs["cache"] != "hit" {
		t.Errorf("second request should trace as a hit: %v", hj.Root.Attrs)
	}
	if findSpan(hj.Root, "search") != nil {
		t.Error("cache hit should not contain a search span")
	}
	if got := s.Tracer().Len(); got != 2 {
		t.Errorf("tracer retains %d traces, want 2", got)
	}
}

func TestTracingDisabled(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceCapacity = -1 })
	resp, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "" {
		t.Errorf("disabled tracing should yield no trace ID, got %q", resp.TraceID)
	}
	if s.Tracer() != nil {
		t.Error("Tracer() should be nil when disabled")
	}
	// Phase metrics still work without a tracer.
	if s.met.Phase[phaseParse].Count() == 0 || s.met.Phase[phaseSearch].Count() == 0 {
		t.Error("phase histograms should observe even with tracing disabled")
	}
}

func TestExplainSearchTraceSurvivesCacheHits(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	req := OptimizeRequest{Query: chainSQL(6, 7), Trace: true}

	miss, err := s.Explain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(miss.SearchTrace, "layer ") || !strings.Contains(miss.SearchTrace, "\n    2 ") ||
		!strings.Contains(miss.SearchTrace, "best:") {
		t.Errorf("search trace missing DP layers/final:\n%s", miss.SearchTrace)
	}
	if miss.Cache != "miss" || miss.Deduped {
		t.Fatalf("first explain should run its own search, got cache=%q deduped=%v", miss.Cache, miss.Deduped)
	}
	hit, err := s.Explain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" {
		t.Fatalf("second explain should hit the cache, got %q", hit.Cache)
	}
	if !strings.HasPrefix(hit.SearchTrace, "replayed from cache") {
		t.Errorf("cached trace should carry a replayed-from-cache label:\n%s", hit.SearchTrace)
	}
	if !strings.HasSuffix(hit.SearchTrace, miss.SearchTrace) {
		t.Error("cache hits should return the trace captured at search time")
	}
	// A deduplicated miss joins another request's search, so its trace is
	// replayed too: the hook holds the leader until the follower has joined.
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	s.searchHook = func() {
		started <- struct{}{}
		<-gate
	}
	dreq := OptimizeRequest{Query: chainSQL(5, 7), Trace: true}
	type answer struct {
		resp *ExplainResponse
		err  error
	}
	answers := make(chan answer, 2)
	explain := func() {
		resp, err := s.Explain(ctx, dreq)
		answers <- answer{resp, err}
	}
	misses := s.met.CacheMisses.Load()
	go explain()
	<-started
	go explain()
	waitFor(t, func() bool { return s.met.CacheMisses.Load() == misses+2 })
	close(gate)
	for i := 0; i < 2; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.resp.Cache != "miss" {
			t.Fatalf("concurrent first requests should both miss, got %q", a.resp.Cache)
		}
		if strings.HasPrefix(a.resp.SearchTrace, "replayed from cache") != a.resp.Deduped {
			t.Errorf("deduped=%v, trace:\n%s", a.resp.Deduped, a.resp.SearchTrace)
		}
	}
	if s.met.Deduped.Load() != 1 {
		t.Fatalf("one of the two misses should have joined the other's search, deduped %d", s.met.Deduped.Load())
	}
	s.searchHook = nil

	// Without the flag the trace stays out of the payload.
	plain, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SearchTrace != "" {
		t.Error("trace text should be opt-in")
	}
}

func TestExplainAnalyzeJoinsPredictedAndActual(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()

	out, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(6, 7), Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Analyze
	if rep == nil {
		t.Fatal("analyze=1 should attach an accuracy report")
	}
	if len(rep.Ops) != 11 {
		t.Errorf("6-relation chain: 6 scans + 5 joins = 11 ops, got %d", len(rep.Ops))
	}
	if rep.Scale <= 0 || rep.WallSeconds <= 0 {
		t.Errorf("degenerate calibration: scale %g, wall %gs", rep.Scale, rep.WallSeconds)
	}
	if !strings.Contains(out.AnalyzeTable, "cost-model accuracy") {
		t.Errorf("analyze table missing header:\n%s", out.AnalyzeTable)
	}
	// The error histogram saw the report's samples.
	if got := s.met.CostRelErr.Count(); got != int64(len(rep.Errors())) {
		t.Errorf("cost-error histogram has %d samples, report has %d", got, len(rep.Errors()))
	}
	if s.met.CostRelErr.Count() == 0 {
		t.Error("a real execution should produce error samples")
	}
	if s.met.Phase[phaseExecute].Count() != 1 || s.met.AnalyzeRuns.Load() != 1 {
		t.Error("execute phase and analyze counter should record the run")
	}

	// The trace tree shows per-operator predicted vs actual descriptors.
	j := s.Tracer().Get(out.TraceID).JSON()
	exec := findSpan(j.Root, "execute")
	if exec == nil {
		t.Fatal("trace missing execute span")
	}
	if len(exec.Children) != len(rep.Ops) {
		t.Fatalf("execute span has %d operator children, want %d", len(exec.Children), len(rep.Ops))
	}
	scan := findSpan(exec, "scan(R1)")
	if scan == nil {
		t.Fatal("execute span missing scan(R1) operator")
	}
	for _, attr := range []string{"rows", "predTfMicros", "predTlMicros", "estRows"} {
		if scan.Attrs[attr] == "" {
			t.Errorf("operator span missing %q attr: %v", attr, scan.Attrs)
		}
	}

	// A second analyze reuses the generated database.
	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(6, 8), Analyze: true}); err != nil {
		t.Fatal(err)
	}
	if n := s.dbs.Len(); n != 1 {
		t.Errorf("one catalog version should generate one database, got %d", n)
	}
}

func TestHTTPDebugTraceEndpoints(t *testing.T) {
	_, srv := newTestServer(t, nil)

	// ?analyze=1&trace=1 are the query-param spellings of the body fields.
	resp, body := postJSON(t, srv.URL+"/explain?analyze=1&trace=1", OptimizeRequest{Query: chainSQL(6, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain?analyze=1: %d: %s", resp.StatusCode, body)
	}
	var exp ExplainResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Analyze == nil || exp.AnalyzeTable == "" {
		t.Error("?analyze=1 should attach the accuracy report")
	}
	if exp.SearchTrace == "" {
		t.Error("?trace=1 should attach the search trace")
	}
	if exp.TraceID == "" {
		t.Fatal("response should carry a trace ID")
	}

	resp, body = getBody(t, srv.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: %d", resp.StatusCode)
	}
	var list struct {
		Entries []TraceEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Entries) != 1 || list.Entries[0].ID != exp.TraceID {
		t.Errorf("trace listing = %+v, want one entry %s", list.Entries, exp.TraceID)
	}

	resp, body = getBody(t, srv.URL+"/debug/trace/"+exp.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace/{id}: %d: %s", resp.StatusCode, body)
	}
	var tj obs.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.ID != exp.TraceID || tj.Root == nil || tj.Root.Name != "explain" {
		t.Errorf("unexpected trace payload: id=%s root=%+v", tj.ID, tj.Root)
	}
	if findSpan(tj.Root, "execute") == nil {
		t.Error("served trace should include the execute span")
	}
	// The miss ran the search, so its trace holds the 6-layer search span.
	if sp := findSpan(tj.Root, "search"); sp == nil || tj.Root.Attrs["fingerprint"] != exp.Fingerprint || sp.Attrs["relations"] != "6" || len(layerSpans(sp)) != 6 {
		t.Errorf("miss trace should carry its 6-layer search span, got %+v", sp)
	}
	if findSpan(tj.Root, "plan-change") != nil {
		t.Error("a first search swaps no plan")
	}

	// A hit runs no search: same template, nothing linked.
	resp, body = postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(6, 8)})
	var hit OptimizeResponse
	if err := json.Unmarshal(body, &hit); err != nil || resp.StatusCode != http.StatusOK || hit.Cache != "hit" {
		t.Fatalf("second request should hit: %d: %s", resp.StatusCode, body)
	}
	_, body = getBody(t, srv.URL+"/debug/trace/"+hit.TraceID)
	if strings.Contains(string(body), `"name": "search"`) || strings.Contains(string(body), `"name": "plan-change"`) {
		t.Errorf("hit trace should link no search and no plan changes:\n%s", body)
	}

	resp, _ = getBody(t, srv.URL+"/debug/trace/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace should 404, got %d", resp.StatusCode)
	}
}

// TestTraceLinksPlanChange: a request whose search swaps the template's plan
// (here: the first request after a statistics refresh) records the change as
// a span of its own trace, and /debug/trace/{id} returns it.
func TestTraceLinksPlanChange(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.Catalog = poisonedCatalog() })
	ctx := context.Background()
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL}); err != nil {
		t.Fatal(err)
	}
	s.RefreshCatalog(refreshedCatalog())
	swapped, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	tj := fetchTrace(t, srv.URL, swapped.TraceID)
	if c, ok := planChangeOf(t, tj); !ok || c.Source != "refresh" || c.TraceID != swapped.TraceID {
		t.Fatalf("trace should link its refresh plan change, got %+v", c)
	}
	if sp := findSpan(tj.Root, "search"); sp == nil || findSpan(sp, "plan-change") == nil || tj.Root.Attrs["catalog"] != swapped.Catalog {
		t.Errorf("trace should link the search that caused the change, got %+v", sp)
	}
}

func TestHTTPDebugTraceDisabled(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) { c.TraceCapacity = -1 })
	resp, body := getBody(t, srv.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"entries": []`) {
		t.Errorf("disabled tracing should list no traces: %d: %s", resp.StatusCode, body)
	}
	resp, _ = getBody(t, srv.URL+"/debug/trace/any")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracing: any trace ID should 404, got %d", resp.StatusCode)
	}
}

// bigDDL is a catalog over the rows an analyze or a placement may generate.
const bigDDL = `
relation BIG card=10000000 pages=100000 disk=0
column BIG.a ndv=1000
relation TINY card=10 pages=1 disk=1
column TINY.a ndv=1000
`

func TestAnalyzeRefusesOversizedCatalogs(t *testing.T) {
	s := newTestService(t, nil)
	_, err := s.Explain(context.Background(), OptimizeRequest{
		Query:   "SELECT * FROM BIG, TINY WHERE BIG.a = TINY.a",
		Schema:  bigDDL,
		Analyze: true,
	})
	if err == nil || !strings.Contains(err.Error(), "analyze refused") {
		t.Fatalf("oversized catalog should be refused, got %v", err)
	}
}

// TestFailedExecuteLandsInPhaseHistogram: an execute phase that fails before
// the engine starts — its database refused, no workers registered for a
// distributed run — is sampled in paroptd_phase_seconds{phase="execute"} like
// any other failed phase, and its span carries the error.
func TestFailedExecuteLandsInPhaseHistogram(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	for _, req := range []OptimizeRequest{
		{Query: "SELECT * FROM BIG, TINY WHERE BIG.a = TINY.a", Schema: bigDDL, Analyze: true},
		{Query: chainSQL(3, 1), Analyze: true, Distributed: true},
	} {
		if _, err := s.Explain(ctx, req); err == nil {
			t.Fatalf("%+v: want an execute failure", req)
		}
	}
	if n := s.met.Phase[phaseExecute].Count(); n != 2 {
		t.Errorf("execute histogram has %d samples, want 2", n)
	}
	if n := s.met.AnalyzeRuns.Load(); n != 0 {
		t.Errorf("%d analyze runs counted, want 0", n)
	}
	for _, tr := range s.Tracer().Traces() {
		if exec := findSpan(tr.JSON().Root, "execute"); exec == nil || exec.Error == "" {
			t.Errorf("trace %s: execute span %+v, want one with the error", tr.ID(), exec)
		}
	}
}

// TestAnalyzeDataIsBounded: analyzes under more distinct inline schemas than
// analyzeVersions leave at most analyzeVersions catalog versions' synthetic
// data behind, so a client cannot grow the daemon one schema at a time.
func TestAnalyzeDataIsBounded(t *testing.T) {
	s := newTestService(t, nil)
	for i := 0; i <= analyzeVersions; i++ {
		ddl := fmt.Sprintf("relation A card=%d pages=1 disk=0\ncolumn A.a ndv=10\nrelation B card=10 pages=1 disk=1\ncolumn B.a ndv=10\n", 10+i)
		if _, err := s.Explain(context.Background(), OptimizeRequest{
			Query: "SELECT * FROM A, B WHERE A.a = B.a", Schema: ddl, Analyze: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.dbs.Len(); n > analyzeVersions {
		t.Fatalf("%d analyzed catalog versions hold %d databases, want at most %d", analyzeVersions+1, n, analyzeVersions)
	}
}
