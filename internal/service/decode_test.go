package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"paropt/internal/placement"
)

// optimizeBodySeeds are FuzzOptimizeBody's seeds.
func optimizeBodySeeds() [][]byte {
	const sql = "SELECT * FROM A, B, C WHERE A.k = B.k AND B.w = C.w AND A.v = 1"
	var seeds [][]byte
	for _, req := range boundRequests {
		req.Query = sql
		seed, _ := json.Marshal(req)
		seeds = append(seeds, seed)
	}
	for _, seed := range []string{
		`{"query":"SELECT * FROM A, B WHERE A.k = B.k","why":true,"trace":true,"analyze":true,"analyzeParallel":2}`,
		`{"query":"SELECT * FROM A","schema":"relation A card=10 pages=1\ncolumn A.k ndv=3\n"}`,
		`{"query":"SELECT * FROM A, B WHERE A.k = B.k","catalog":"nope"}`,
		`{"query":"SELECT * FROM A, B","k":-1,"distributed":true,"analyze":true}`,
		`{"query":"SELECT <&> FROM \u2028"}`, `{"query":1}`, `{"unknown":true}`, `{`, ``, `[]`, `null`, "\x00\xff",
	} {
		seeds = append(seeds, []byte(seed))
	}
	return seeds
}

// FuzzDecodeOptimizeRequest is the hand decoder's differential against
// json.Decoder with DisallowUnknownFields: both accept or both reject, and
// an accepted body decodes to the same request — except that the hand
// decoder rejects anything but whitespace after the value, which the
// Decoder leaves unread.
func FuzzDecodeOptimizeRequest(f *testing.F) {
	for _, seed := range optimizeBodySeeds() {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"QUERY":"a","Query":"b","query":null}`, `{"query":"é\n","k":1e308,"costBenefit":-0}`,
		`{"k":1e400}`, `{"analyzeParallel":9223372036854775807}`, `{"analyzeParallel":1.0}`,
		`{"ſchema":"x","K":2}`, `{"query":"a"} {"query":"b"}`, `{"query":"a"}x`, " null \n",
		`{"trace":true,"why":false,"analyze":null,"distributed":true}`, `{"query":"\xff"}`, `{"k":01}`,
		"{\"\u212a\":2}", `{"\u212a":2,"c\u0061talog":"v"}`, `{"query":"\ud800"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want OptimizeRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		werr := dec.Decode(&want)
		trailing := werr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
		for _, own := range []bool{false, true} {
			var got OptimizeRequest
			err := decodeOptimizeRequest(bytes.Clone(body), &got, own)
			switch {
			case werr != nil || trailing:
				if err == nil {
					t.Fatalf("%q: hand decoder accepts %+v; json.Decoder: %v, trailing data: %v", body, got, werr, trailing)
				}
			case err != nil:
				t.Fatalf("%q: hand decoder rejects (%v), json.Decoder accepts %+v", body, err, want)
			case got != want || math.Float64bits(got.K) != math.Float64bits(want.K) ||
				math.Float64bits(got.CostBenefit) != math.Float64bits(want.CostBenefit):
				t.Fatalf("%q: hand decoder %+v, json.Decoder %+v", body, got, want)
			}
		}
	})
}

// TestJSONRoutesRejectTrailingData: a body is one JSON value. A second
// object or stray bytes after it is a 400 on every route that decodes JSON,
// not a request served from the first object; trailing whitespace is fine.
func TestJSONRoutesRejectTrailingData(t *testing.T) {
	s := newTestService(t, nil)
	h := s.Handler()
	bodies := map[string]string{
		"/optimize":           `{"query":"` + chainSQL(3, 1) + `"}`,
		"/explain":            `{"query":"` + chainSQL(3, 1) + `"}`,
		"/schema":             `{"ddl":"relation Z card=10 pages=1"}`,
		"/cluster/register":   `{"addr":"127.0.0.1:1"}`,
		"/cluster/deregister": `{"addr":"127.0.0.1:1"}`,
		"/cluster/placement":  `{}`,
	}
	for path, body := range bodies {
		for _, tail := range []string{"garbage", body, "]"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body+tail)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data") {
				t.Errorf("POST %s with %q after the body: HTTP %d %s, want 400 for trailing data", path, tail, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body+" \n\t")))
		if strings.Contains(rec.Body.String(), "trailing data") {
			t.Errorf("POST %s: trailing whitespace rejected: %s", path, rec.Body)
		}
	}
}

// TestHugeQueryAllocatesLinearly: a query body of placement.MaxBodyBytes that fails to
// resolve is a 400 whose handling allocates less than twice the body: no
// per-token or per-byte structure is built beside the text.
func TestHugeQueryAllocatesLinearly(t *testing.T) {
	s := newTestService(t, nil)
	h := s.Handler()
	prefix, suffix := `{"query":"SELECT * FROM A`, `"}`
	body := []byte(prefix + strings.Repeat(" ", placement.MaxBodyBytes-len(prefix)-len(suffix)) + suffix)
	req := httptest.NewRequest("POST", "/optimize", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&m1)
	if rec.Code/100 != 4 {
		t.Fatalf("HTTP %d %s, want a 4xx", rec.Code, rec.Body)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("a %d B body allocated %d B", len(body), alloc)
	if alloc >= 2*uint64(len(body)) {
		t.Fatalf("a %d B body allocated %d B, want < 2× the body", len(body), alloc)
	}
}

// TestDecodeAllocatesOnlyStrings: decoding a body without escapes allocates
// the strings it returns — here the query and the catalog — and nothing else.
func TestDecodeAllocatesOnlyStrings(t *testing.T) {
	body := []byte(`{"query": "` + chainSQL(6, 7) + `", "catalog": "abc", "k": 1.5, "costBenefit": null, "trace": true,
		"why": false, "analyze": true, "analyzeParallel": 4, "distributed": false}`)
	var req OptimizeRequest
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodeOptimizeRequest(body, &req, false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decoding allocates %.0f times, want 2 (query and catalog)", allocs)
	}
	if req.Catalog != "abc" || req.K != 1.5 || !req.Trace || !req.Analyze || req.AnalyzeParallel != 4 {
		t.Fatalf("decoded %+v", req)
	}
}
