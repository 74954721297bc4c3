package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/search"
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

// fetchTrace GETs /debug/trace/{id} and decodes it.
func fetchTrace(t *testing.T, base, id string) *obs.TraceJSON {
	t.Helper()
	resp, body := getBody(t, base+"/debug/trace/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s: %d: %s", id, resp.StatusCode, body)
	}
	var tj obs.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	return &tj
}

// listTraces GETs a /debug/traces listing and returns its entries' trace IDs.
func listTraces(t *testing.T, url string) []string {
	t.Helper()
	resp, body := getBody(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", url, resp.StatusCode, body)
	}
	var list struct {
		Entries []TraceEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(list.Entries))
	for i, e := range list.Entries {
		ids[i] = e.ID
	}
	return ids
}

// attrInt reads an integer span attribute.
func attrInt(t *testing.T, sp *obs.SpanJSON, key string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(sp.Attrs[key], 10, 64)
	if err != nil {
		t.Fatalf("span %s: attribute %q = %q: %v", sp.Name, key, sp.Attrs[key], err)
	}
	return v
}

// layerSpans returns a search span's dp-layer children in order.
func layerSpans(search *obs.SpanJSON) []*obs.SpanJSON {
	var layers []*obs.SpanJSON
	for _, c := range search.Children {
		if strings.HasPrefix(c.Name, "dp-layer-") {
			layers = append(layers, c)
		}
	}
	return layers
}

// planChange is one plan swap as its plan-change span records it: the
// span's attributes, its diff split into lines, the trace's ID and the
// span's start.
type planChange struct {
	Time        time.Time
	TraceID     string
	Source      string
	Fingerprint string
	PrevCatalog string
	Catalog     string
	PrevPlan    string
	NewPlan     string
	PrevRT      float64
	NewRT       float64
	PrevWork    float64
	NewWork     float64
	Diff        []string
}

// planChangeOf rebuilds the planChange a trace's plan-change span records;
// ok is false when the trace has none.
func planChangeOf(t *testing.T, tj *obs.TraceJSON) (c planChange, ok bool) {
	t.Helper()
	sp := findSpan(tj.Root, "plan-change")
	if sp == nil {
		return c, false
	}
	num := func(key string) float64 {
		v, err := strconv.ParseFloat(sp.Attrs[key], 64)
		if err != nil {
			t.Fatalf("plan-change attribute %q = %q: %v", key, sp.Attrs[key], err)
		}
		return v
	}
	c = planChange{
		Time:        time.UnixMicro(tj.StartUnix + sp.StartMicros),
		TraceID:     tj.ID,
		Source:      sp.Attrs["source"],
		Fingerprint: sp.Attrs["fingerprint"],
		PrevCatalog: sp.Attrs["prevCatalog"],
		Catalog:     sp.Attrs["catalog"],
		PrevPlan:    sp.Attrs["prevPlan"],
		NewPlan:     sp.Attrs["newPlan"],
		PrevRT:      num("prevRT"),
		NewRT:       num("newRT"),
		PrevWork:    num("prevWork"),
		NewWork:     num("newWork"),
	}
	if d := sp.Attrs["diff"]; d != "" {
		c.Diff = strings.Split(d, "\n")
	}
	return c, true
}

// planChanges lists the plan changes held by the retained traces, newest
// first.
func planChanges(t *testing.T, s *Service) []planChange {
	t.Helper()
	var out []planChange
	for _, tr := range s.Tracer().Traces() {
		if c, ok := planChangeOf(t, tr.JSON()); ok {
			out = append(out, c)
		}
	}
	return out
}

// TestDebugSearchPerLayerRecords is the tentpole acceptance scenario: a
// 10-relation search is listed at /debug/traces?kind=search and its trace's
// search span carries the per-layer telemetry; a cache hit adds no search but
// counts on the template's /debug/workload row, and /explain?trace=1 replays
// the layer text from the cache; the Prometheus families appear on /metrics.
func TestDebugSearchPerLayerRecords(t *testing.T) {
	s, srv := newWideServer(t)
	ctx := context.Background()

	miss, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(10, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ids := listTraces(t, srv.URL+"/debug/traces?kind=search")
	if len(ids) != 1 || ids[0] != miss.TraceID {
		t.Fatalf("want the miss as the 1 recorded search, got %v", ids)
	}
	tj := fetchTrace(t, srv.URL, ids[0])
	e := findSpan(tj.Root, "search")
	if e == nil {
		t.Fatal("search trace has no search span")
	}
	if e.Attrs["relations"] != "10" || e.Attrs["source"] != "search" {
		t.Errorf("search span = relations %q source %q, want 10/search", e.Attrs["relations"], e.Attrs["source"])
	}
	layers := layerSpans(e)
	if len(layers) != 10 {
		t.Fatalf("10-relation PODP search should record 10 layers, got %d", len(layers))
	}
	var kept, pruned int64
	for i, l := range layers {
		if l.Name != fmt.Sprintf("dp-layer-%d", i+1) {
			t.Errorf("layer %d is %s", i, l.Name)
		}
		kept += attrInt(t, l, "plansStored")
		pruned += attrInt(t, l, "pruned")
	}
	if kept == 0 {
		t.Error("layers should retain candidates")
	}
	if total := attrInt(t, e, "pruned"); pruned != total {
		t.Errorf("per-layer pruned sum %d != total %d", pruned, total)
	}
	if attrInt(t, e, "pruned") != attrInt(t, e, "prunedDominance")+attrInt(t, e, "prunedWork")+attrInt(t, e, "prunedMemory")+attrInt(t, e, "prunedBeam") {
		t.Errorf("prune reasons don't partition the total: %v", e.Attrs)
	}
	if attrInt(t, e, "peakBytesRetained") <= 0 || attrInt(t, e, "frontier") < 1 || e.DurMicros <= 0 {
		t.Errorf("search span missing aggregates: %v (%dµs)", e.Attrs, e.DurMicros)
	}
	if tj.Root.Attrs["cache"] != "miss" {
		t.Errorf("fresh search must not be marked cached: %v", tj.Root.Attrs)
	}

	// A cache hit adds no search; it counts on the template's workload row.
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(10, 99)}); err != nil {
		t.Fatal(err)
	}
	if ids := listTraces(t, srv.URL+"/debug/traces?kind=search"); len(ids) != 1 {
		t.Fatalf("cache hit must not add a search, got %v", ids)
	}
	_, body := getBody(t, srv.URL+"/debug/workload")
	var wl struct {
		Profiles []workload.ProfileSnapshot `json:"profiles"`
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Profiles) != 1 || wl.Profiles[0].Fingerprint != miss.Fingerprint || wl.Profiles[0].Hits != 1 || wl.Profiles[0].Misses != 1 {
		t.Errorf("hit should count on the template's workload row: %+v", wl.Profiles)
	}

	// Text rendering carries the per-layer table, replayed from the cache.
	resp, body := postJSON(t, srv.URL+"/explain?trace=1", OptimizeRequest{Query: chainSQL(10, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain?trace=1: %d: %s", resp.StatusCode, body)
	}
	var exp ExplainResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replayed from cache", "\n   10 ", "best:", "total: 10 relations"} {
		if !strings.Contains(exp.SearchTrace, want) {
			t.Errorf("search trace text missing %q:\n%s", want, exp.SearchTrace)
		}
	}

	// The new exposition families.
	_, body = getBody(t, srv.URL+"/metrics")
	text := string(body)
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

	// A bad filter is rejected.
	resp, _ = getBody(t, srv.URL+"/debug/traces?min_ms=-1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("min_ms=-1 should 400, got %d", resp.StatusCode)
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
// statistics refresh records a plan change with cost deltas and a structural
// diff under its own sweep trace, listed at /debug/traces?kind=plan-change,
// and the JSON request log's "plan change" line carries the same fields but
// the diff, naming that trace.
func TestSweeperPlanChangeAuditLog(t *testing.T) {
	var log lockedBuffer
	s := newTestService(t, func(cfg *Config) {
		cfg.Catalog = poisonedCatalog()
		cfg.Logger = slog.New(slog.NewJSONHandler(&log, nil))
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	first := analyzePoisoned(t, s)
	s.RefreshCatalog(refreshedCatalog())
	if n := s.met.SweepReoptimized.Load(); n != 1 {
		t.Fatalf("sweep should re-optimize 1 template, got %d", n)
	}

	changes := planChanges(t, s)
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

	// The endpoints serve it: listed by kind, fetched by ID under the sweep
	// trace whose search caused it.
	if ids := listTraces(t, srv.URL+"/debug/traces?kind=plan-change"); len(ids) != 1 || ids[0] != c.TraceID {
		t.Errorf("endpoint should list the recorded change's trace %s, got %v", c.TraceID, ids)
	}
	tj := fetchTrace(t, srv.URL, c.TraceID)
	if search := findSpan(tj.Root, "search"); tj.Root.Name != "sweep" || search == nil || search.Attrs["source"] != "sweeper" || findSpan(search, "plan-change") == nil {
		t.Errorf("the change should hang under the sweep trace's search span: %+v", tj.Root)
	}
	if got, _ := planChangeOf(t, tj); !reflect.DeepEqual(got, c) {
		t.Errorf("endpoint serves %+v, want %+v", got, c)
	}

	// The metrics counter and the request log both saw it.
	_, body := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(string(body), `paroptd_plan_changes_total{source="sweeper"} 1`) {
		t.Error("/metrics should count the sweeper plan change")
	}
	line := log.line(t, "plan change")
	var keys map[string]any
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["diff"]; ok {
		t.Errorf("the log line should leave the diff to the span: %s", line)
	}
	// The line's keys are the span's attribute names, which encoding/json
	// matches to planChange's fields case-insensitively ("traceId" →
	// TraceID, "time" → Time).
	var row planChange
	if err := json.Unmarshal(line, &row); err != nil {
		t.Fatal(err)
	}
	want := c
	want.Time, want.Diff = row.Time, nil
	if row.Time.IsZero() || !reflect.DeepEqual(row, want) {
		t.Errorf("log line %+v, want the span's fields but the diff %+v", row, want)
	}
	fetchTrace(t, srv.URL, row.TraceID)
}

// lockedBuffer is a log destination safe for the service's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// line returns the one JSON log line whose msg is msg.
func (b *lockedBuffer) line(t *testing.T, msg string) []byte {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var found [][]byte
	for _, l := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		var rec struct{ Msg string }
		if json.Unmarshal(l, &rec) == nil && rec.Msg == msg {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want 1 %q log line, got %d:\n%s", msg, len(found), b.buf.Bytes())
	}
	return found[0]
}

// TestPlacementSwapIsLabelledPlacement: installing a placement re-keys the
// template, and its search prices the placed data, so the answer moves under
// the same catalog. The swap names the placement, the input that moved, not
// the search.
func TestPlacementSwapIsLabelledPlacement(t *testing.T) {
	lb, err := exchange.StartLoopback(3, engine.FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	s, srv := newTestServer(t, func(c *Config) {
		c.Machine = machine.Config{CPUs: 2, Disks: 2, Nodes: 3, NetLatency: 1}
	})
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPlacement("", nil); err != nil {
		t.Fatal(err)
	}
	placed, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	changes := planChanges(t, s)
	if len(changes) != 1 {
		t.Fatalf("want 1 plan change, got %+v", changes)
	}
	c := changes[0]
	if c.Source != "placement" || c.TraceID != placed.TraceID || c.PrevCatalog != c.Catalog ||
		(c.PrevRT == c.NewRT && c.PrevWork == c.NewWork) {
		t.Errorf("plan change %+v, want a placement swap under one catalog with a cost delta", c)
	}
	if n, m := s.met.PlanChanges.Load("placement"), s.met.PlanChanges.Load("search"); n != 1 || m != 0 {
		t.Errorf("counted %d placement and %d search swaps, want 1 and 0", n, m)
	}
	if ids := listTraces(t, srv.URL+"/debug/traces?kind=plan-change"); len(ids) != 1 || ids[0] != placed.TraceID {
		t.Errorf("the placed request's trace should be listed, got %v", ids)
	}
}

// TestEvictedTemplatesResearchWithoutSwaps: on a cache too small for the
// traffic, evicted templates are searched again under unchanged inputs, and
// every such search answers as the last one did, so no swap is recorded.
func TestEvictedTemplatesResearchWithoutSwaps(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.CacheCapacity = 3 })
	ctx := context.Background()
	ks := []float64{0, 1, 1.5, 2.5}
	const templates = 5 // chains of 2 to 6 relations
	for round := 0; round < 3; round++ {
		for n := 2; n < 2+templates; n++ {
			for lit := 1; lit <= 4; lit++ {
				req := OptimizeRequest{Query: chainSQL(n, lit), K: ks[(n+lit+round)%len(ks)]}
				if _, err := s.Optimize(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if ev, searches := s.met.Evictions.Load(), s.met.FullSearch.Load(); ev == 0 || searches <= templates {
		t.Fatalf("%d evictions and %d searches over %d templates: the fixture re-searches nothing", ev, searches, templates)
	}
	if ids := listTraces(t, srv.URL+"/debug/traces?kind=plan-change"); len(ids) != 0 {
		t.Errorf("re-searches under unchanged inputs recorded plan changes: %v", ids)
	}
	_, body := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(string(body), `paroptd_plan_changes_total{source="search"} 0`) {
		t.Error(`/metrics should count 0 swaps with source="search"`)
	}
}

// TestPlanChangeTraceOutlivesHits: the tracer pins a trace holding a plan
// change, so a refresh-caused swap followed by far more cache hits than the
// ring holds is still listed by kind and fetchable with every audit field.
func TestPlanChangeTraceOutlivesHits(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) {
		c.Catalog = poisonedCatalog()
		c.TraceCapacity = 8
	})
	ctx := context.Background()
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL}); err != nil {
		t.Fatal(err)
	}
	s.RefreshCatalog(refreshedCatalog())
	swapped, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if hit, err := s.Optimize(ctx, OptimizeRequest{Query: poisonedSQL}); err != nil || hit.Cache != "hit" {
			t.Fatalf("request %d: %v (cache %v)", i, err, hit)
		}
	}
	if ids := listTraces(t, srv.URL+"/debug/traces?kind=plan-change"); len(ids) != 1 || ids[0] != swapped.TraceID {
		t.Fatalf("the swap's trace should still be listed, got %v", ids)
	}
	if ids := listTraces(t, srv.URL+"/debug/traces"); len(ids) != 9 || ids[8] != swapped.TraceID {
		t.Errorf("listing should be the ring's 8 traces then the pinned one, got %v", ids)
	}
	c, ok := planChangeOf(t, fetchTrace(t, srv.URL, swapped.TraceID))
	if !ok {
		t.Fatal("fetched trace holds no plan-change span")
	}
	if c.Source != "refresh" || c.Fingerprint != swapped.Fingerprint || c.Catalog != swapped.Catalog ||
		c.PrevCatalog == "" || c.PrevCatalog == c.Catalog || c.PrevPlan == "" || c.NewPlan != swapped.PlanSignature ||
		c.PrevRT <= 0 || c.NewRT != swapped.Summary.ResponseTime || c.PrevWork <= 0 || c.NewWork <= 0 || c.Time.IsZero() {
		t.Errorf("plan change incomplete: %+v", c)
	}
}

// TestMissTracePlacesSpansWhereTheWorkRan: the baseline and dp-layer spans
// of a miss are drawn from the search's records — one per layer, each at its
// measured start and as wide as its measured wall time, inside the search
// span, the layers in order and not overlapping — and carry how many
// goroutines did the work. At GOMAXPROCS 1 every layer has one worker and the
// baseline runs before the layers; at GOMAXPROCS 2 the baseline runs beside
// them, overlapping dp-layer-2. That overlap is a race between the baseline's
// goroutine starting and two short layers ending, so up to eight fresh
// services serve the miss until one shows it.
func TestMissTracePlacesSpansWhereTheWorkRan(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for attempt := 1; ; attempt++ {
				base, layers := missSpans(t)
				if procs == 1 {
					for _, l := range layers {
						if l.Attrs["workers"] != "1" {
							t.Errorf("%s at GOMAXPROCS 1 ran on %s workers", l.Name, l.Attrs["workers"])
						}
					}
					if base.EndMicros > layers[0].StartMicros {
						t.Errorf("baseline [%d, %d]µs at GOMAXPROCS 1 does not precede dp-layer-1 at %dµs", base.StartMicros, base.EndMicros, layers[0].StartMicros)
					}
					return
				}
				if l2 := layers[1]; base.StartMicros < l2.EndMicros && base.EndMicros > l2.StartMicros {
					return
				}
				if attempt == 8 {
					t.Fatalf("baseline [%d, %d]µs never overlapped dp-layer-2 [%d, %d]µs", base.StartMicros, base.EndMicros, layers[1].StartMicros, layers[1].EndMicros)
				}
			}
		})
	}
}

// missSpans serves a 6-relation miss on a fresh service, checks its search
// span's children against the cached search record and returns its baseline
// and dp-layer spans.
func missSpans(t *testing.T) (base *obs.SpanJSON, layers []*obs.SpanJSON) {
	t.Helper()
	s := newTestService(t, nil)
	miss, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	root := findSpan(s.Tracer().Get(miss.TraceID).JSON().Root, "search")
	if root == nil {
		t.Fatal("miss trace has no search span")
	}
	entry, ok := s.cache.Get(s.cacheKey(miss.Fingerprint, miss.Catalog))
	if !ok || len(entry.cover.Stats.Layers) != 6 || root.Attrs["source"] != "search" || root.Attrs["relations"] != "6" {
		t.Fatalf("search span %v over a cached search (%v); want source search over 6 layers", root.Attrs, ok)
	}
	st := entry.cover.Stats
	within := func(sp *obs.SpanJSON, rec search.LayerRecord, name string) {
		t.Helper()
		if sp.Name != name || sp.Attrs["plansStored"] != fmt.Sprint(rec.Kept) || sp.Attrs["workers"] != fmt.Sprint(rec.Workers) {
			t.Errorf("span %s storing %s plans on %s workers, record %s stores %d on %d", sp.Name, sp.Attrs["plansStored"], sp.Attrs["workers"], name, rec.Kept, rec.Workers)
		}
		if sp.DurMicros < 0 || sp.DurMicros > rec.WallNanos/1e3+1 {
			t.Errorf("%s lasts %dµs, its record %dns", sp.Name, sp.DurMicros, rec.WallNanos)
		}
		if sp.StartMicros < root.StartMicros || sp.EndMicros > root.EndMicros {
			t.Errorf("%s spans [%d, %d]µs; search span is [%d, %d]µs", sp.Name, sp.StartMicros, sp.EndMicros, root.StartMicros, root.EndMicros)
		}
	}
	if base = findSpan(root, "baseline"); base == nil || st.Baseline == nil {
		t.Fatalf("search span has no baseline child (record %v)", st.Baseline)
	}
	within(base, *st.Baseline, "baseline")
	layers = layerSpans(root)
	if len(layers) != len(st.Layers) {
		t.Fatalf("search span has %d dp-layer children, want %d", len(layers), len(st.Layers))
	}
	for i, l := range layers {
		within(l, st.Layers[i], fmt.Sprintf("dp-layer-%d", st.Layers[i].Card))
		if i > 0 && l.StartMicros < layers[i-1].EndMicros {
			t.Errorf("%s starts at %dµs, before %s ended at %dµs", l.Name, l.StartMicros, layers[i-1].Name, layers[i-1].EndMicros)
		}
	}
	return base, layers
}
