package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/obs"
	"paropt/internal/parser"
)

// wideDDL is a 10-relation chain schema for the introspection acceptance
// scenarios (a search deep enough to produce ten DP layers).
const wideDDL = testDDL + `
relation R7 card=55000 pages=550 disk=2
column R7.a ndv=1000
column R7.b ndv=3500
relation R8 card=85000 pages=850 disk=3
column R8.a ndv=3500
column R8.b ndv=4500
relation R9 card=65000 pages=650 disk=0
column R9.a ndv=4500
column R9.b ndv=2800
relation R10 card=45000 pages=450 disk=1
column R10.a ndv=2800
column R10.b ndv=1500
`

func mustSchema(t *testing.T, ddl string) *catalog.Catalog {
	t.Helper()
	cat, err := parser.ParseSchema(ddl)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newWideServer serves the 10-relation catalog with a beam-bounded search:
// an unbounded 10-relation PODP frontier is too expensive for a unit test,
// and the cap additionally exercises the beam prune counter.
func newWideServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Catalog = mustSchema(t, wideDDL)
		cfg.CoverCap = 12
	})
}

// TestDebugSearchPerLayerRecords is the tentpole acceptance scenario:
// /debug/search returns per-layer telemetry for a 10-relation search, cache
// hits bump the originating entry's counter and flip its cached flag, and the
// new Prometheus families appear on /metrics.
func TestDebugSearchPerLayerRecords(t *testing.T) {
	s, srv := newWideServer(t)
	ctx := context.Background()

	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(10, 7)}); err != nil {
		t.Fatal(err)
	}
	resp, body := getBody(t, srv.URL+"/debug/search")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/search: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Searches []SearchLogEntry `json:"searches"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Searches) != 1 {
		t.Fatalf("want 1 recorded search, got %d", len(out.Searches))
	}
	e := out.Searches[0]
	if e.Relations != 10 || e.Source != "search" {
		t.Errorf("entry = relations %d source %q, want 10/search", e.Relations, e.Source)
	}
	if len(e.Layers) != 10 {
		t.Fatalf("10-relation PODP search should record 10 layers, got %d", len(e.Layers))
	}
	var kept, pruned int64
	for i, l := range e.Layers {
		if l.Card != i+1 {
			t.Errorf("layer %d has cardinality %d", i, l.Card)
		}
		kept += l.Kept
		pruned += l.Pruned()
	}
	if kept == 0 {
		t.Error("layers should retain candidates")
	}
	if pruned != e.Pruned {
		t.Errorf("per-layer pruned sum %d != total %d", pruned, e.Pruned)
	}
	if e.Pruned != e.PrunedDominance+e.PrunedWork+e.PrunedMemory+e.PrunedBeam {
		t.Errorf("prune reasons don't partition the total: %+v", e)
	}
	if e.PeakBytesRetained <= 0 || e.FrontierSize < 1 || e.ElapsedMicros <= 0 {
		t.Errorf("entry missing aggregates: %+v", e)
	}
	if e.Cached || e.CacheHits != 0 {
		t.Errorf("fresh search must not be marked cached: %+v", e)
	}

	// A cache hit bumps the originating entry instead of adding a new one.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(10, 99)}); err != nil {
		t.Fatal(err)
	}
	_, body = getBody(t, srv.URL+"/debug/search")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Searches) != 1 {
		t.Fatalf("cache hit must not add a search entry, got %d", len(out.Searches))
	}
	if !out.Searches[0].Cached || out.Searches[0].CacheHits != 1 {
		t.Errorf("hit should mark the entry cached with 1 hit: %+v", out.Searches[0])
	}

	// Text rendering carries the per-layer table.
	resp, body = getBody(t, srv.URL+"/debug/search?format=text")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/search?format=text: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{"relations=10", "cached=true", "layer", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("text listing missing %q:\n%s", want, text)
		}
	}

	// The new exposition families.
	_, body = getBody(t, srv.URL+"/metrics")
	text = string(body)
	for _, want := range []string{
		`paroptd_search_pruned_total{reason="dominance"}`,
		`paroptd_search_pruned_total{reason="beam"}`,
		`paroptd_plan_changes_total{source="sweeper"}`,
		`paroptd_search_layer_seconds_bucket{le="+Inf"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Bad ?n is rejected.
	resp, _ = getBody(t, srv.URL+"/debug/search?n=0")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n=0 should 400, got %d", resp.StatusCode)
	}
}

// TestExplainWhyProvenance: ?why=1 returns the chosen plan's cost-descriptor
// breakdown and at least three rejected frontier alternatives with reasons.
func TestExplainWhyProvenance(t *testing.T) {
	s, srv := newWideServer(t)

	out, err := s.Explain(context.Background(), OptimizeRequest{Query: chainSQL(10, 7), Why: true})
	if err != nil {
		t.Fatal(err)
	}
	pv := out.Why
	if pv == nil {
		t.Fatal("Why: true should attach provenance")
	}
	if pv.Plan == "" || pv.Plan != out.PlanSignature {
		t.Errorf("provenance plan %q != chosen signature %q", pv.Plan, out.PlanSignature)
	}
	if pv.Cost.ResponseTime <= 0 || pv.Cost.Work <= 0 || pv.Cost.FirstTuple < 0 {
		t.Errorf("chosen breakdown incomplete: %+v", pv.Cost)
	}
	if len(pv.Cost.Charges) == 0 {
		t.Error("chosen breakdown should carry per-resource charges")
	}
	if len(pv.Rejected) < 3 {
		t.Fatalf("want >= 3 rejected alternatives, got %d (frontier %d)", len(pv.Rejected), pv.FrontierSize)
	}
	for _, alt := range pv.Rejected {
		if alt.Plan == "" || alt.Reason == "" || alt.Cost.ResponseTime <= 0 {
			t.Errorf("rejected alternative incomplete: %+v", alt)
		}
		if alt.Plan == pv.Plan {
			t.Errorf("chosen plan listed as rejected: %s", alt.Plan)
		}
	}
	for _, want := range []string{"why:", "chosen:", "rejected alternatives", "charges:"} {
		if !strings.Contains(out.WhyText, want) {
			t.Errorf("WhyText missing %q:\n%s", want, out.WhyText)
		}
	}

	// The curl spelling: POST /explain?why=1.
	resp, body := postJSON(t, srv.URL+"/explain?why=1", OptimizeRequest{Query: chainSQL(10, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain?why=1: %d: %s", resp.StatusCode, body)
	}
	var http1 ExplainResponse
	if err := json.Unmarshal(body, &http1); err != nil {
		t.Fatal(err)
	}
	if http1.Why == nil || len(http1.Why.Rejected) < 3 {
		t.Errorf("HTTP why should carry provenance with rejected alternatives: %+v", http1.Why)
	}

	// Without the flag the payload stays lean.
	plain, err := s.Explain(context.Background(), OptimizeRequest{Query: chainSQL(10, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Why != nil || plain.WhyText != "" {
		t.Error("provenance should be opt-in")
	}
}

// TestSweeperPlanChangeAuditLog: a sweeper-triggered re-optimization after a
// statistics refresh lands in /debug/planlog with cost deltas and a
// structural diff, and the JSONL persister mirrors it.
func TestSweeperPlanChangeAuditLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "planlog.jsonl")
	s := newTestService(t, func(cfg *Config) {
		cfg.Catalog = poisonedCatalog()
		cfg.PlanLogPath = logPath
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	first := analyzePoisoned(t, s)
	s.RefreshCatalog(refreshedCatalog())
	if n := s.SweepNow(); n != 1 {
		t.Fatalf("sweep should re-optimize 1 template, got %d", n)
	}

	changes := s.PlanChanges()
	if len(changes) != 1 {
		t.Fatalf("want 1 plan change, got %d", len(changes))
	}
	c := changes[0]
	if c.Source != "sweeper" {
		t.Errorf("source = %q, want sweeper", c.Source)
	}
	if c.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprint = %q, want %q", c.Fingerprint, first.Fingerprint)
	}
	if c.PrevPlan == c.NewPlan {
		t.Errorf("refreshed statistics should swap the plan, still %s", c.NewPlan)
	}
	if c.PrevRT == c.NewRT && c.PrevWork == c.NewWork {
		t.Error("plan change should carry a cost delta")
	}
	if len(c.Diff) == 0 {
		t.Error("plan change should carry a structural diff")
	}
	if c.PrevCatalog == c.Catalog {
		t.Error("refresh should move the catalog version across the change")
	}

	// The endpoint serves it, JSON and text.
	resp, body := getBody(t, srv.URL+"/debug/planlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/planlog: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Changes []PlanChange `json:"changes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Changes) != 1 || out.Changes[0].ID != c.ID {
		t.Errorf("endpoint should serve the recorded change, got %+v", out.Changes)
	}
	_, body = getBody(t, srv.URL+"/debug/planlog?format=text")
	for _, want := range []string{"source=sweeper", "rt:", "plan:"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text planlog missing %q:\n%s", want, body)
		}
	}

	// The metrics counter and the JSONL persister both saw it.
	_, body = getBody(t, srv.URL+"/metrics")
	if !strings.Contains(string(body), `paroptd_plan_changes_total{source="sweeper"} 1`) {
		t.Error("/metrics should count the sweeper plan change")
	}
	s.Close() // flushes the asynchronous audit file
	persisted := readFileT(t, logPath)
	var row PlanChange
	if err := json.Unmarshal([]byte(strings.TrimSpace(persisted)), &row); err != nil {
		t.Fatalf("JSONL row should parse: %v\n%s", err, persisted)
	}
	if row.Fingerprint != c.Fingerprint || row.Source != "sweeper" {
		t.Errorf("persisted row mismatch: %+v", row)
	}
}

// TestReplayChangeEntersAuditLog covers the replay feed-in path the CLI uses.
func TestReplayChangeEntersAuditLog(t *testing.T) {
	s := newTestService(t, nil)
	s.RecordReplayChange("fp123", "cat1", "join(A,B)", "join(B,A)", 10, 8)
	changes := s.PlanChanges()
	if len(changes) != 1 {
		t.Fatalf("want 1 change, got %d", len(changes))
	}
	c := changes[0]
	if c.Source != "replay" || c.PrevPlan != "join(A,B)" || c.NewPlan != "join(B,A)" ||
		c.PrevRT != 10 || c.NewRT != 8 || len(c.Diff) != 2 {
		t.Errorf("replay change mismatch: %+v", c)
	}
	if s.met.PlanChanges.Load("replay") != 1 {
		t.Error("replay counter should advance")
	}
}

// TestMissTraceLaysLayerSpansEndToEnd: the dp-layer spans of a miss are drawn
// from the search's layer records — one per layer, each as wide as the
// layer's measured wall time, laid end to end inside the search span — and
// the search's /debug/search entry carries the same layers.
func TestMissTraceLaysLayerSpansEndToEnd(t *testing.T) {
	s := newTestService(t, nil)
	miss, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	search := findSpan(s.Tracer().Get(miss.TraceID).JSON().Root, "search")
	if search == nil {
		t.Fatal("miss trace has no search span")
	}
	entry := s.SearchLog()[0]
	if entry.TraceID != miss.TraceID || len(entry.Layers) != 6 {
		t.Fatalf("/debug/search entry: trace %q, %d layers; want %q, 6", entry.TraceID, len(entry.Layers), miss.TraceID)
	}
	var layers []*obs.SpanJSON
	for _, c := range search.Children {
		if strings.HasPrefix(c.Name, "dp-layer-") {
			layers = append(layers, c)
		}
	}
	if len(layers) != len(entry.Layers) {
		t.Fatalf("search span has %d dp-layer children, want %d", len(layers), len(entry.Layers))
	}
	var sum int64
	for i, l := range layers {
		rec := entry.Layers[i]
		if l.Name != fmt.Sprintf("dp-layer-%d", rec.Card) || l.Attrs["plansStored"] != fmt.Sprint(rec.Kept) {
			t.Errorf("span %d is %s storing %s plans, record is layer %d storing %d", i, l.Name, l.Attrs["plansStored"], rec.Card, rec.Kept)
		}
		if l.DurMicros <= 0 || l.DurMicros > rec.WallNanos/1e3+1 {
			t.Errorf("%s lasts %dµs, its record %dns", l.Name, l.DurMicros, rec.WallNanos)
		}
		if i > 0 && l.StartMicros != layers[i-1].EndMicros {
			t.Errorf("%s starts at %dµs, %s ended at %dµs", l.Name, l.StartMicros, layers[i-1].Name, layers[i-1].EndMicros)
		}
		sum += l.DurMicros
	}
	if first, last := layers[0], layers[len(layers)-1]; first.StartMicros < search.StartMicros || last.EndMicros > search.EndMicros || sum > search.DurMicros {
		t.Errorf("layers span [%d, %d]µs summing to %dµs; search span is [%d, %d]µs", first.StartMicros, last.EndMicros, sum, search.StartMicros, search.EndMicros)
	}
}
