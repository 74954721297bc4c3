package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"paropt/internal/obs"
	"paropt/internal/obs/workload"
)

// startBlockedQuery posts one optimize request that parks in the search
// phase until gate closes, and waits for it to appear in the registry.
func startBlockedQuery(t *testing.T, s *Service, srv string, sql string) (QuerySnapshot, chan int) {
	t.Helper()
	code := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, srv+"/optimize", OptimizeRequest{Query: sql})
		code <- resp.StatusCode
	}()
	waitFor(t, func() bool {
		for _, qs := range s.InflightQueries() {
			if qs.Query == sql && qs.Phase == "search" {
				return true
			}
		}
		return false
	})
	for _, qs := range s.InflightQueries() {
		if qs.Query == sql {
			return qs, code
		}
	}
	t.Fatal("query vanished from the registry")
	return QuerySnapshot{}, nil
}

func TestHTTPInflightRegistryAndClientCancel(t *testing.T) {
	gate := make(chan struct{})
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 1 })
	t.Cleanup(func() { close(gate) })
	s.searchHook = func() { <-gate }

	sql := chainSQL(3, 1)
	qs, code := startBlockedQuery(t, s, srv.URL, sql)
	if qs.Kind != "optimize" || qs.ID == 0 {
		t.Fatalf("unexpected snapshot: %+v", qs)
	}

	// The JSON listing carries the query.
	resp, body := getBody(t, srv.URL+"/debug/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries: %d: %s", resp.StatusCode, body)
	}
	var list struct {
		Queries []QuerySnapshot `json:"queries"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Queries) != 1 || list.Queries[0].Query != sql || list.Queries[0].Phase != "search" {
		t.Fatalf("unexpected listing: %s", body)
	}
	id := list.Queries[0].ID

	// Text form and the single-query endpoint.
	resp, body = getBody(t, fmt.Sprintf("%s/debug/queries?format=text", srv.URL))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "1 in-flight") {
		t.Errorf("text listing: %d: %s", resp.StatusCode, body)
	}
	resp, _ = getBody(t, fmt.Sprintf("%s/debug/queries/%d", srv.URL, id))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/queries/%d: %d", id, resp.StatusCode)
	}

	// The inflight gauge is visible while the query runs.
	_, mbody := getBody(t, srv.URL+"/metrics")
	if got := metricValue(t, string(mbody), "paroptd_queries_inflight"); got != 1 {
		t.Errorf("queries_inflight = %g, want 1", got)
	}

	// Unknown / malformed IDs.
	resp, _ = getBody(t, srv.URL+"/debug/queries/999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id should be 404, got %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/999999", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE unknown id should be 404, got %d", resp.StatusCode)
		}
	}
	resp, _ = getBody(t, srv.URL+"/debug/queries/garbage")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage id should be 400, got %d", resp.StatusCode)
	}

	// Cancel it: the DELETE returns immediately and the parked request
	// surfaces as 499 even though the search worker is still busy.
	start := time.Now()
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/debug/queries/%d", srv.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	select {
	case c := <-code:
		if c != statusClientCancelled {
			t.Errorf("cancelled request returned %d, want %d", c, statusClientCancelled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return within 5s")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("cancel round-trip took %s, want <200ms", elapsed)
	}

	waitFor(t, func() bool { return len(s.InflightQueries()) == 0 })
	_, mbody = getBody(t, srv.URL+"/metrics")
	if got := metricValue(t, string(mbody), `paroptd_query_cancelled_total{reason="client"}`); got != 1 {
		t.Errorf(`cancelled_total{client} = %g, want 1`, got)
	}
}

func TestHTTPDeadlineCancelsRequest(t *testing.T) {
	gate := make(chan struct{})
	s, srv := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.RequestTimeout = 50 * time.Millisecond
	})
	t.Cleanup(func() { close(gate) })
	s.searchHook = func() { <-gate }

	resp, body := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline expiry returned %d (%s), want 504", resp.StatusCode, body)
	}
	waitFor(t, func() bool { return s.met.QueryCancelled.Load(CancelDeadline) == 1 })
}

func TestServiceShutdownCancelsInflight(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	s, srv := newTestServer(t, func(c *Config) { c.Workers = 1 })
	t.Cleanup(release)
	s.searchHook = func() { <-gate }

	_, code := startBlockedQuery(t, s, srv.URL, chainSQL(3, 1))
	// Shutdown's final Close waits for the pool worker still parked on the
	// gate, so it must run concurrently; the cancelled request unblocks as
	// soon as the drain deadline fires cancelAll.
	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown(20 * time.Millisecond)
		close(shutdownDone)
	}()
	select {
	case c := <-code:
		if c != http.StatusServiceUnavailable {
			t.Errorf("shutdown-cancelled request returned %d, want 503", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not return after shutdown")
	}
	release()
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the pool was released")
	}
	if got := s.met.QueryCancelled.Load(CancelShutdown); got != 1 {
		t.Errorf("QueryCancelledShutdown = %d, want 1", got)
	}
	// Shutdown implies Close: new requests are rejected.
	resp, _ := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 2)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown request returned %d, want 503", resp.StatusCode)
	}
}

// TestRequestRecordEveryEnding: however a request ends — answered, rejected
// at parse, cancelled by a client mid-analyze, or out of time — it leaves
// exactly one query-log record carrying its trace ID, its /debug/queries ID,
// the last phase it entered and the cancel reason; and a second daemon
// lifetime on the same file appends rather than truncates.
func TestRequestRecordEveryEnding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	// lifetime runs fn against a fresh service logging to path and returns
	// the records that lifetime appended.
	seen := 0
	lifetime := func(mutate func(*Config), fn func(s *Service, url string)) []workload.Record {
		t.Helper()
		qlog, err := obs.NewSink[workload.Record](path, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, srv := newTestServer(t, func(c *Config) {
			c.QueryLog = qlog
			if mutate != nil {
				mutate(c)
			}
		})
		fn(s, srv.URL)
		waitFor(t, func() bool { return len(s.InflightQueries()) == 0 })
		s.Close()
		if err := qlog.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := workload.ReadLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < seen {
			t.Fatalf("log shrank from %d to %d records: a restart must append, not truncate", seen, len(recs))
		}
		recs, seen = recs[seen:], len(recs)
		return recs
	}

	analyze := OptimizeRequest{Query: chainSQL(4, 3), Analyze: true, AnalyzeParallel: 1}
	cases := []struct {
		name      string
		mutate    func(*Config)
		run       func(s *Service, url string) (status int)
		status    int
		kind      string
		phase     string
		cancelled string
		failed    bool
	}{{
		name: "ok",
		run: func(s *Service, url string) int {
			resp, _ := postJSON(t, url+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)})
			return resp.StatusCode
		},
		status: http.StatusOK, kind: "optimize", phase: "select",
	}, {
		name: "parse failure",
		run: func(s *Service, url string) int {
			resp, _ := postJSON(t, url+"/optimize", OptimizeRequest{Query: "SELECT * FROM Nope"})
			return resp.StatusCode
		},
		status: http.StatusBadRequest, kind: "optimize", phase: "parse", failed: true,
	}, {
		name: "client cancel mid-analyze",
		run: func(s *Service, url string) int {
			// The execute phase opens by taking dbMu for the synthetic
			// database; holding it parks the request there until the DELETE
			// has landed.
			s.dbMu.Lock()
			code := make(chan int, 1)
			go func() {
				resp, _ := postJSON(t, url+"/explain", analyze)
				code <- resp.StatusCode
			}()
			var id int64
			waitFor(t, func() bool {
				for _, qs := range s.InflightQueries() {
					if qs.Phase == "execute" {
						id = qs.ID
					}
				}
				return id != 0
			})
			req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/debug/queries/%d", url, id), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			s.dbMu.Unlock()
			return <-code
		},
		status: statusClientCancelled, kind: "explain", phase: "execute", cancelled: CancelClient, failed: true,
	}, {
		name: "deadline",
		mutate: func(c *Config) {
			c.Workers = 1
			c.RequestTimeout = 50 * time.Millisecond
		},
		run: func(s *Service, url string) int {
			gate := make(chan struct{})
			defer close(gate)
			s.searchHook = func() { <-gate }
			resp, _ := postJSON(t, url+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)})
			return resp.StatusCode
		},
		status: http.StatusGatewayTimeout, kind: "optimize", phase: "search", cancelled: CancelDeadline, failed: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			recs := lifetime(tc.mutate, func(s *Service, url string) { status = tc.run(s, url) })
			if status != tc.status {
				t.Errorf("HTTP status %d, want %d", status, tc.status)
			}
			if len(recs) != 1 {
				t.Fatalf("request left %d records, want exactly 1: %+v", len(recs), recs)
			}
			rec := recs[0]
			if rec.TraceID == "" || rec.QueryID == 0 || rec.Query == "" || rec.Time.IsZero() {
				t.Errorf("record is missing its identity: %+v", rec)
			}
			if rec.Kind != tc.kind || rec.Phase != tc.phase || rec.Cancelled != tc.cancelled {
				t.Errorf("record (kind, phase, cancelled) = (%q, %q, %q), want (%q, %q, %q)",
					rec.Kind, rec.Phase, rec.Cancelled, tc.kind, tc.phase, tc.cancelled)
			}
			if failed := rec.Error != ""; failed != tc.failed {
				t.Errorf("record error = %q, want failed=%v", rec.Error, tc.failed)
			}
			if !tc.failed && (rec.Fingerprint == "" || rec.PlanSig == "" || rec.Cache != "miss") {
				t.Errorf("served record is missing its plan: %+v", rec)
			}
			if tc.phase != "parse" && rec.Fingerprint == "" {
				t.Errorf("request past parse should record its fingerprint: %+v", rec)
			}
		})
	}
	if seen != len(cases) {
		t.Errorf("log holds %d records after %d single-request lifetimes", seen, len(cases))
	}
}

// TestHTTPTraceFilters: /debug/traces?fingerprint= and ?min_ms= narrow the
// trace listing.
func TestHTTPTraceFilters(t *testing.T) {
	_, srv := newTestServer(t, nil)
	resp, body := postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(3, 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if resp, body = postJSON(t, srv.URL+"/optimize", OptimizeRequest{Query: chainSQL(4, 2)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize 2: %d: %s", resp.StatusCode, body)
	}

	type listing struct {
		Entries []TraceEntry `json:"entries"`
	}
	get := func(params string) (int, listing) {
		resp, body := getBody(t, srv.URL+"/debug/traces"+params)
		var l listing
		_ = json.Unmarshal(body, &l)
		return resp.StatusCode, l
	}

	if code, l := get(""); code != http.StatusOK || len(l.Entries) != 2 {
		t.Fatalf("unfiltered: %d, %d traces, want 2", code, len(l.Entries))
	}
	if code, l := get("?fingerprint=" + or.Fingerprint); code != http.StatusOK || len(l.Entries) != 1 {
		t.Errorf("fingerprint filter kept %d traces, want 1", len(l.Entries))
	}
	if code, l := get("?fingerprint=no-such-fp"); code != http.StatusOK || len(l.Entries) != 0 {
		t.Errorf("bogus fingerprint kept %d traces, want 0", len(l.Entries))
	}
	// Every real trace took well under an hour.
	if code, l := get("?min_ms=3600000"); code != http.StatusOK || len(l.Entries) != 0 {
		t.Errorf("min_ms=1h kept %d traces, want 0", len(l.Entries))
	}
	if code, l := get("?min_ms=0"); code != http.StatusOK || len(l.Entries) != 2 {
		t.Errorf("min_ms=0 kept %d traces, want 2", len(l.Entries))
	}
	if code, _ := get("?min_ms=banana"); code != http.StatusBadRequest {
		t.Errorf("bad min_ms returned %d, want 400", code)
	}
}

// TestInflightProgressDuringAnalyze polls the registry while an
// explain-analyze executes; any observed progress snapshot must be
// internally consistent. (Whether a sample lands inside the execute window
// is timing-dependent, so absence is not a failure.)
func TestInflightProgressDuringAnalyze(t *testing.T) {
	s, srv := newTestServer(t, nil)
	stop := make(chan struct{})
	sampledCh := make(chan []QuerySnapshot, 1)
	go func() {
		var sampled []QuerySnapshot
		for {
			select {
			case <-stop:
				sampledCh <- sampled
				return
			default:
			}
			for _, qs := range s.InflightQueries() {
				if qs.Phase == "execute" && qs.Progress != nil {
					sampled = append(sampled, qs)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	resp, body := postJSON(t, srv.URL+"/explain",
		OptimizeRequest{Query: chainSQL(6, 7), Analyze: true, AnalyzeParallel: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain analyze: %d: %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool { return len(s.InflightQueries()) == 0 })
	close(stop)
	sampled := <-sampledCh
	if len(sampled) == 0 {
		t.Log("no execute-phase sample landed (analyze finished too fast); nothing to assert")
		return
	}
	for _, qs := range sampled {
		p := qs.Progress
		if p.Percent < 0 || p.Percent > 1 {
			t.Errorf("Percent = %g, want [0,1]", p.Percent)
		}
		for _, op := range p.Ops {
			if op.Label == "" {
				t.Errorf("op with empty label: %+v", op)
			}
			if op.Percent < 0 || op.Percent > 1 {
				t.Errorf("op %s Percent = %g, want [0,1]", op.Label, op.Percent)
			}
		}
	}
}

// TestTextTablesCutBetweenRunes: the text tables elide a long query or plan
// signature between runes, so a non-ASCII identifier never leaves half a
// rune. Both inputs put a two-byte "ö" at bytes 56–57, across a byte cut
// at 57.
func TestTextTablesCutBetweenRunes(t *testing.T) {
	var queries strings.Builder
	writeQueriesText(&queries, []QuerySnapshot{{ID: 1, Kind: "optimize", Phase: "search",
		Query: "SELECT * FROM " + strings.Repeat("x", 42) + "ößen, straße WHERE ößen.id = straße.id"}})
	profiles := workload.FormatTable([]workload.ProfileSnapshot{{Fingerprint: "fp",
		PlanSig: "HJ(scan(" + strings.Repeat("r", 48) + "ößen), scan(straße))"}})
	for name, out := range map[string]string{"/debug/queries": queries.String(), "/debug/workload": profiles} {
		if !utf8.ValidString(out) || !strings.Contains(out, "...") {
			t.Errorf("%s text table should elide between runes:\n%q", name, out)
		}
	}
}
