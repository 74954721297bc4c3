package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paropt/internal/core"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/search"
)

// Tests of the hits-from-bytes path: /optimize splices a per-cover-member
// slab into the response instead of encoding it. The contract is byte
// identity with the generic encoder, a memo bounded by the cover set, and
// unchanged behaviour of everything that still materializes plans.

// shapeSQL joins R1..Rn of testDDL as a chain, a star centred on R1, or a
// cycle, with a literal selection on R1.a.
func shapeSQL(shape string, n, literal int) string {
	rels := make([]string, n)
	for i := range rels {
		rels[i] = fmt.Sprintf("R%d", i+1)
	}
	var preds []string
	for i := 1; i < n; i++ {
		if shape == "star" {
			preds = append(preds, fmt.Sprintf("R1.b = R%d.a", i+1))
		} else {
			preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", i, i+1))
		}
	}
	if shape == "cycle" {
		preds = append(preds, fmt.Sprintf("R%d.b = R1.a", n))
	}
	preds = append(preds, fmt.Sprintf("R1.a = %d", literal))
	return "SELECT * FROM " + strings.Join(rels, ", ") + " WHERE " + strings.Join(preds, " AND ")
}

// smallDDL is a catalog small enough that analyze executions are cheap.
const smallDDL = `relation A card=400 pages=8 disk=0
column A.k ndv=40
column A.v ndv=4
relation B card=300 pages=6 disk=1
column B.k ndv=40
column B.w ndv=7
relation C card=200 pages=4 disk=2
column C.w ndv=7
`

// boundRequests are the §2 knobs the differential tests sweep.
var boundRequests = []OptimizeRequest{
	{}, {K: 1.2}, {K: 1.5}, {K: 2}, {K: 4}, {CostBenefit: 2},
}

// genericJSON is what the generic encoder (writeJSON) puts on the wire.
func genericJSON(t testing.TB, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// referenceResponse derives the response the way the service did before the
// memo existed — SelectBounded, ExplainJSON, a fresh struct — taking only the
// per-request fields (cache outcome, latency, trace ID) from got.
func referenceResponse(t testing.TB, s *Service, req OptimizeRequest, got *OptimizeResponse) *OptimizeResponse {
	t.Helper()
	e, ok := s.cache.Get(s.cacheKey(got.Fingerprint, got.Catalog))
	if !ok {
		t.Fatalf("no cache entry for %s", got.Fingerprint)
	}
	plan, err := e.opt.SelectBounded(e.cover, req.bound())
	if err != nil {
		t.Fatal(err)
	}
	planJSON, err := e.opt.ExplainJSON(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := &OptimizeResponse{
		Fingerprint:    got.Fingerprint,
		Catalog:        got.Catalog,
		Cache:          got.Cache,
		Deduped:        got.Deduped,
		CoverSetReused: got.CoverSetReused,
		CoverSize:      e.cover.Size,
		PlanSignature:  plan.Tree.String(),
		Summary:        PlanSummary{ResponseTime: plan.RT(), Work: plan.Work()},
		Baseline:       &PlanSummary{ResponseTime: plan.Baseline.RT(), Work: plan.Baseline.Work()},
		Plan:           planJSON,
		ElapsedMicros:  got.ElapsedMicros,
		TraceID:        got.TraceID,
	}
	if b := req.bound(); b != nil {
		want.Bound = b.Name()
	}
	return want
}

// checkOptimizeBody asserts one /optimize HTTP response against the contract
// of the splice and returns it decoded.
func checkOptimizeBody(t *testing.T, s *Service, req OptimizeRequest, resp *http.Response, body []byte) *OptimizeResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d (transfer encoding %v), body is %d bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	var got OptimizeResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("body does not decode: %v\n%s", err, body)
	}
	var pj core.PlanJSON
	if err := json.Unmarshal(got.Plan, &pj); err != nil {
		t.Fatalf("plan does not decode: %v", err)
	}
	if enc := genericJSON(t, &got); !bytes.Equal(enc, body) {
		t.Fatalf("body is not the generic encoding of its decoded self:\n got %s\nwant %s", body, enc)
	}
	if want := genericJSON(t, referenceResponse(t, s, req, &got)); !bytes.Equal(want, body) {
		t.Fatalf("body differs from the encoder's rendering of the re-derived response:\n got %s\nwant %s", body, want)
	}
	return &got
}

// TestOptimizeBytesMatchEncoder is the contract of the splice: for every
// shape, size and bound, on misses and hits, traced and untraced, the bytes
// handleOptimize writes are what writeJSON writes for the response derived
// the long way, and they carry a Content-Length.
func TestOptimizeBytesMatchEncoder(t *testing.T) {
	for _, traced := range []bool{true, false} {
		s, srv := newTestServer(t, func(c *Config) {
			if !traced {
				c.TraceCapacity = -1
			}
		})
		tmpl := 0
		for _, shape := range []string{"chain", "star", "cycle"} {
			for n := 4; n <= 6; n++ {
				// The template's first request is the miss; rotate which
				// bound it carries. Every bound then follows as a hit.
				first := boundRequests[tmpl%len(boundRequests)]
				tmpl++
				for i, req := range append([]OptimizeRequest{first}, boundRequests...) {
					req.Query = shapeSQL(shape, n, i+1)
					resp, body := postJSON(t, srv.URL+"/optimize", req)
					got := checkOptimizeBody(t, s, req, resp, body)
					if want := map[bool]string{true: "miss", false: "hit"}[i == 0]; got.Cache != want {
						t.Fatalf("%s n=%d request %d: cache=%s, want %s", shape, n, i, got.Cache, want)
					}
					if (got.TraceID != "") != traced {
						t.Fatalf("traced=%v but traceId=%q", traced, got.TraceID)
					}
				}
			}
		}
	}
}

// TestOptimizeBytesDedupedMiss drives a real deduplicated miss through HTTP:
// followers of an in-flight search get "deduped": true between "cache" and
// "coverSetReused", spliced like any other response.
func TestOptimizeBytesDedupedMiss(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 2 })
	gate := make(chan struct{})
	s.searchHook = func() { <-gate }
	const n = 4
	var wg sync.WaitGroup
	type result struct {
		resp *http.Response
		body []byte
	}
	results := make([]result, n)
	req := OptimizeRequest{Query: chainSQL(5, 1), K: 1.5}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var b bytes.Buffer
			b.ReadFrom(resp.Body) //nolint:errcheck
			results[i] = result{resp, b.Bytes()}
		}(i)
	}
	// Release the leader once every request has missed the cache; the grace
	// period covers the few instructions between a follower counting its miss
	// and joining the flight (a late one re-checks the cache and is a plain
	// miss, which is why the assertion below is "at least one").
	for s.met.CacheMisses.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	deduped := 0
	for _, r := range results {
		if r.resp == nil {
			t.Fatal("request failed")
		}
		if got := checkOptimizeBody(t, s, req, r.resp, r.body); got.Deduped {
			deduped++
			if !bytes.Contains(r.body, []byte("\"cache\": \"miss\",\n  \"deduped\": true,\n  \"coverSetReused\": false")) {
				t.Fatalf("deduped field misplaced:\n%s", r.body)
			}
		}
	}
	if deduped == 0 {
		t.Fatalf("none of %d concurrent requests was deduped", n)
	}
}

// TestWriteOptimizeEscapesLikeEncoder pins the hand-written head and tail to
// encoding/json's string escaping (HTML-safe, \u-escaped control bytes,
// invalid UTF-8 replaced) — strconv.Quote would differ on every one of these —
// and to its omitempty behaviour, on plain strings too.
func TestWriteOptimizeEscapesLikeEncoder(t *testing.T) {
	s := newTestService(t, nil)
	req := OptimizeRequest{Query: chainSQL(4, 1), K: 2}
	p, err := s.optimize(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	nasty := []string{"plain_R1", "", `<a href="x">&amp;</a>`, "tab\there\nnewline", `back\slash "quoted"`, "caf\u00e9 \u2028 \U0001f600", "bad\xffutf8", "\x00\x1f\x7f"}
	for i, str := range nasty {
		for _, deduped := range []bool{false, true} {
			resp := *p.resp
			resp.Fingerprint, resp.Catalog, resp.Cache = str, nasty[(i+1)%len(nasty)], nasty[(i+2)%len(nasty)]
			resp.Bound, resp.TraceID = nasty[(i+3)%len(nasty)], nasty[(i+4)%len(nasty)]
			resp.Deduped, resp.CoverSetReused = deduped, !deduped
			resp.CoverSize, resp.ElapsedMicros = -i, int64(i)*1e12
			rec := httptest.NewRecorder()
			writeOptimize(rec, &resp, p.rend.slab)
			if want := genericJSON(t, &resp); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("case %d deduped=%v:\n got %s\nwant %s", i, deduped, rec.Body.Bytes(), want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
				t.Fatalf("Content-Length %s, body %d", cl, rec.Body.Len())
			}
		}
	}
}

// TestExplainUnchangedByMemo: /explain stays on the generic encoder with Plan
// a sub-slice of the slab (nested indentation); its body must be the encoding
// of a response derived the long way, text and breakdown included.
func TestExplainUnchangedByMemo(t *testing.T) {
	s, srv := newTestServer(t, nil)
	for i, req := range boundRequests {
		req.Query = shapeSQL("cycle", 5, i+1)
		resp, body := postJSON(t, srv.URL+"/explain", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got ExplainResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		e, _ := s.cache.Get(s.cacheKey(got.Fingerprint, got.Catalog))
		plan, err := e.opt.SelectBounded(e.cover, req.bound())
		if err != nil {
			t.Fatal(err)
		}
		want := ExplainResponse{
			OptimizeResponse: *referenceResponse(t, s, req, &got.OptimizeResponse),
			Text:             e.opt.Explain(plan),
			Breakdown:        e.opt.Mod.BreakdownTable(plan.Op),
		}
		if enc := genericJSON(t, &want); !bytes.Equal(enc, body) {
			t.Fatalf("bound %d: /explain body differs from the re-derived response:\n got %s\nwant %s", i, body, enc)
		}
	}
}

// slabs snapshots an entry's memo.
func (e *cacheEntry) slabs() []*renderedPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*renderedPlan, 0, len(e.answers))
	for _, r := range e.answers {
		out = append(out, r)
	}
	return out
}

// TestMemoBoundedByCoverSet: however many distinct bounds clients send, an
// entry holds at most one exact-size slab per cover member, bounds that
// choose the same member share it, and a caller appending to resp.Plan
// cannot write into it.
func TestMemoBoundedByCoverSet(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceCapacity = -1 })
	ctx := context.Background()
	var fp, version string
	for i := 0; i < 10000; i++ {
		resp, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(5, i), K: 1 + float64(i)/2000})
		if err != nil {
			t.Fatal(err)
		}
		fp, version = resp.Fingerprint, resp.Catalog
	}
	e, _ := s.cache.Get(s.cacheKey(fp, version))
	slabs := e.slabs()
	if max := len(e.cover.Frontier) + 1; len(slabs) == 0 || len(slabs) > max {
		t.Fatalf("%d slabs after 10000 distinct bounds, want 1..%d", len(slabs), max)
	}
	if len(slabs) < 2 {
		t.Fatalf("fixture chose only %d distinct member(s); the bound sweep should reach several", len(slabs))
	}
	for _, r := range slabs {
		if cap(r.slab) != len(r.slab) {
			t.Errorf("slab cap %d != len %d", cap(r.slab), len(r.slab))
		}
	}

	// Two loose bounds both select the unbounded optimum: one slab, by pointer.
	a, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(5, 1), K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(5, 2), CostBenefit: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if a.PlanSignature != b.PlanSignature || &a.Plan[0] != &b.Plan[0] {
		t.Fatalf("bounds selecting one member should share its slab (%s / %s)", a.PlanSignature, b.PlanSignature)
	}
	if got := len(e.slabs()); got != len(slabs) {
		t.Fatalf("shared member grew the memo: %d -> %d slabs", len(slabs), got)
	}

	// Appending to the response's Plan reallocates; the slab stays intact.
	before := append([]byte(nil), b.Plan...)
	if cap(a.Plan) != len(a.Plan) {
		t.Fatalf("resp.Plan cap %d != len %d: an append would write into the slab", cap(a.Plan), len(a.Plan))
	}
	a.Plan = append(a.Plan, "scribble"...)
	if !bytes.Equal(b.Plan, before) {
		t.Fatal("append to one response's Plan changed another's")
	}
}

// TestMemoUnderSwapAndPurge (run under -race in CI): goroutines hit one
// template with mixed bounds while the sweeper swaps its entry and the cache
// is purged. Every body must be a whole, valid one — the generic encoding of
// itself, with the plan the bound selects — never a torn or stale-mixed slab.
func TestMemoUnderSwapAndPurge(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 2 })
	h := srv.Config.Handler
	ctx := context.Background()
	want := map[string]string{} // bound name → plan signature
	for _, req := range boundRequests {
		req.Query = chainSQL(5, 0)
		resp, err := s.Optimize(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[resp.Bound] = resp.PlanSignature
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		snap := workload.ProfileSnapshot{Query: chainSQL(5, 0)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.sweepOne(snap)
			} else {
				s.InvalidateCache()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				req := boundRequests[(g+i)%len(boundRequests)]
				req.Query = chainSQL(5, g*1000+i)
				buf, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/optimize", bytes.NewReader(buf)))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
				var got OptimizeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("torn body: %v\n%s", err, rec.Body.Bytes())
					return
				}
				if enc := genericJSON(t, &got); !bytes.Equal(enc, rec.Body.Bytes()) {
					t.Errorf("body is not the generic encoding of itself:\n%s", rec.Body.Bytes())
					return
				}
				var pj core.PlanJSON
				if err := json.Unmarshal(got.Plan, &pj); err != nil || pj.RT != got.Summary.ResponseTime {
					t.Errorf("plan and summary disagree (%v): %v vs %v", err, pj.RT, got.Summary.ResponseTime)
					return
				}
				if got.PlanSignature != want[got.Bound] {
					t.Errorf("bound %q served %s, want %s", got.Bound, got.PlanSignature, want[got.Bound])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
}

// TestExplainPathsAfterSlabHit: a template whose answer was first served from
// the slab still yields provenance, the replayed search trace, and an analyze
// run over *this request's* literal — the paths that materialize a plan.
func TestExplainPathsAfterSlabHit(t *testing.T) {
	cat, err := parser.ParseSchema(smallDDL)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, func(c *Config) { c.Catalog = cat })
	ctx := context.Background()
	sql := func(lit int) string {
		return fmt.Sprintf("SELECT * FROM A, B WHERE A.k = B.k AND A.v = %d", lit)
	}
	for lit := 0; lit < 2; lit++ { // miss, then a hit served from the slab
		if _, err := s.Optimize(ctx, OptimizeRequest{Query: sql(lit), K: 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	rows := map[int]int64{}
	for _, lit := range []int{1, 2} {
		out, err := s.Explain(ctx, OptimizeRequest{Query: sql(lit), K: 1.5, Why: true, Trace: true, Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Cache != "hit" {
			t.Fatalf("literal %d: cache=%s", lit, out.Cache)
		}
		if out.Why == nil || out.Why.Plan != out.PlanSignature || out.WhyText == "" {
			t.Errorf("literal %d: provenance missing or about another plan: %+v", lit, out.Why)
		}
		if !out.SearchTraceCached || !strings.HasPrefix(out.SearchTrace, "replayed from cache") {
			t.Errorf("literal %d: search trace not replayed: cached=%v %q", lit, out.SearchTraceCached, out.SearchTrace)
		}
		if out.Text == "" || out.Breakdown == "" {
			t.Errorf("literal %d: empty text/breakdown", lit)
		}
		if out.Analyze == nil {
			t.Fatalf("literal %d: no analyze report", lit)
		}
		for _, op := range out.Analyze.Ops {
			if op.Root {
				rows[lit] = op.ActRows
			}
		}
	}
	if rows[1] == rows[2] {
		t.Fatalf("analyze ran the cached literal: both literals returned %d rows", rows[1])
	}
}

// nopResponseWriter discards the body; the header map is reused across runs.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header       { return w.h }
func (nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopResponseWriter) WriteHeader(int)             {}

// TestWriteOptimizeAllocatesNoBody: the write path allocates its small
// head-and-tail buffer and header values — nothing proportional to the body.
// A slab ten times larger must cost the same bytes per response.
func TestWriteOptimizeAllocatesNoBody(t *testing.T) {
	s := newTestService(t, nil)
	req := OptimizeRequest{Query: chainSQL(6, 1), K: 2}
	p, err := s.optimize(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(slab []byte) int64 {
		const runs = 2000
		w := nopResponseWriter{h: http.Header{}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			writeOptimize(w, p.resp, slab)
		}
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	small, big := perOp(p.rend.slab), perOp(bytes.Repeat(p.rend.slab, 10))
	// The mean is over a process other goroutines allocate in, so "equal" is
	// to within a few bytes; a copied body would show as thousands.
	if big-small > 16 || small-big > 16 || small > 1024 {
		t.Fatalf("write path allocates %d B/response for a %d B slab, %d B for a %d B one; want equal and <= 1024",
			small, len(p.rend.slab), big, 10*len(p.rend.slab))
	}
}

// TestCacheKeyHashesNothingAfterInstall: the placement fingerprint is hashed
// once by InstallPlacement; building a cache key on a placed version is then
// one string concatenation.
func TestCacheKeyHashesNothingAfterInstall(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.RegisterWorker("127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	m, err := s.InstallPlacement("", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := s.cacheKey("fp", m.CatalogVersion)
	if !strings.Contains(key, "|pl="+m.Fingerprint()+"|") {
		t.Fatalf("cache key %q does not embed the placement fingerprint %s", key, m.Fingerprint())
	}
	if allocs := testing.AllocsPerRun(100, func() { s.cacheKey("fp", m.CatalogVersion) }); allocs > 1 {
		t.Fatalf("cacheKey on a placed version allocates %.0f times, want 1 (the concatenation)", allocs)
	}
}

// FuzzOptimizeBody feeds arbitrary bytes to POST /optimize and POST /explain:
// the handlers must never panic, never answer malformed input with a 5xx, and
// every 200 must be valid JSON equal to the generic encoding of its decoded
// self (for /optimize, that is the splice's whole contract).
func FuzzOptimizeBody(f *testing.F) {
	cat, err := parser.ParseSchema(smallDDL)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Catalog: cat})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	const sql = "SELECT * FROM A, B, C WHERE A.k = B.k AND B.w = C.w AND A.v = 1"
	for _, req := range boundRequests {
		req.Query = sql
		seed, _ := json.Marshal(req)
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"query":"SELECT * FROM A, B WHERE A.k = B.k","why":true,"trace":true,"analyze":true,"analyzeParallel":2}`,
		`{"query":"SELECT * FROM A","schema":"relation A card=10 pages=1\ncolumn A.k ndv=3\n"}`,
		`{"query":"SELECT * FROM A, B WHERE A.k = B.k","catalog":"nope"}`,
		`{"query":"SELECT * FROM A, B","k":-1,"distributed":true,"analyze":true}`,
		`{"query":"SELECT <&> FROM \u2028"}`, `{"query":1}`, `{"unknown":true}`, `{`, ``, `[]`, `null`, "\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/optimize", "/explain"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			switch {
			case rec.Code >= 500:
				t.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
			case rec.Code != http.StatusOK:
				continue
			}
			var v any = &OptimizeResponse{}
			if path == "/explain" {
				v = &ExplainResponse{}
			}
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				t.Fatalf("POST %s: 200 body does not decode: %v\n%s", path, err, rec.Body.Bytes())
			}
			if enc := genericJSON(t, v); !bytes.Equal(enc, rec.Body.Bytes()) {
				t.Fatalf("POST %s: 200 body is not the generic encoding of its decoded self:\n got %s\nwant %s", path, rec.Body.Bytes(), enc)
			}
		}
	})
}

// TestCacheEntryRetainedBudget: a cached 6-relation template costs the heap
// at most 48 KB — the session, the part of the root cover a request can reach
// (core.CoverSet; ≈ 13 of ≈ 160 members, whose plan trees share subtrees),
// the search record and one rendered answer. It was ≈ 122 KB while entries
// kept whole root covers; peak RSS follows this figure times the entries a
// miss-heavy client leaves behind. No kept member may hold the operator tree
// the search priced it from: that pins every layer's operators below it.
func TestCacheEntryRetainedBudget(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceCapacity = -1 })
	ctx := context.Background()
	// Distinct templates: a chain over the six relations in a different order
	// each time.
	order := []int{1, 2, 3, 4, 5, 6}
	template := func(i int) string {
		j := 1 + i%5
		order[0], order[j] = order[j], order[0]
		var rels, preds []string
		for k, r := range order {
			rels = append(rels, fmt.Sprintf("R%d", r))
			if k > 0 {
				preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", order[k-1], r))
			}
		}
		return "SELECT * FROM " + strings.Join(rels, ", ") + " WHERE " + strings.Join(preds, " AND ")
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Warm the service itself and the searches' idle slabs and workers, which
	// the first misses fill and every later one reuses, on templates of their
	// own (a selection on R1). On one core a search takes no helper, so which
	// slab keeps what does not depend on how helpers shared the layers, and
	// the warm slabs hold all they ever keep (slabKeep chunks of each kind).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, entries = 4, 24
	for i := range warm {
		if _, err := s.Optimize(ctx, OptimizeRequest{Query: template(i) + " AND R1.a = 1"}); err != nil {
			t.Fatal(err)
		}
	}
	before, cached := heap(), s.cache.Len()
	fps := map[string]bool{}
	for i := warm; i < warm+entries; i++ {
		resp, err := s.Optimize(ctx, OptimizeRequest{Query: template(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "miss" {
			t.Fatalf("template %d: cache=%s, want a miss per template", i, resp.Cache)
		}
		fps[s.cacheKey(resp.Fingerprint, resp.Catalog)] = true
	}
	perEntry := int64(heap()-before) / entries
	if got := s.cache.Len() - cached; got != entries {
		t.Fatalf("%d entries cached, want %d", got, entries)
	}
	members := 0
	for key := range fps {
		e, _ := s.cache.Get(key)
		members += len(e.cover.Frontier)
		for _, c := range append([]*search.Candidate{e.cover.Baseline}, e.cover.Frontier...) {
			if !reflect.ValueOf(c).Elem().FieldByName("op").IsNil() {
				t.Fatalf("cached member %s holds its operator tree", c)
			}
		}
		if e.cover.Size < len(e.cover.Frontier) {
			t.Fatalf("entry keeps %d members of a %d-member cover", len(e.cover.Frontier), e.cover.Size)
		}
	}
	t.Logf("%d B of heap per cached entry, %.1f cover members kept per entry", perEntry, float64(members)/entries)
	if perEntry > 48<<10 {
		t.Errorf("a cached 6-relation entry retains %d B of heap, budget %d", perEntry, 48<<10)
	}
}
