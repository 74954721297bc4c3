package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
)

// TestNewRefusesOversizedExchangeWindow: fragments carry the window to the
// workers, which refuse one above exchange.MaxWindow — so the daemon refuses
// it at startup instead of failing every distributed analyze.
func TestNewRefusesOversizedExchangeWindow(t *testing.T) {
	if s, err := New(Config{ExchangeWindow: exchange.MaxWindow + 1}); err == nil {
		s.Close()
		t.Fatal("New accepted an exchange window above exchange.MaxWindow")
	}
}

// TestDistributedAnalyzeMergesWorkerTrace is the tentpole end-to-end check:
// a ?distributed=1&analyze=1&trace=1 request must come back with ONE trace
// spanning processes — worker fragment spans (with their join children and
// measured offsets) grafted under the coordinator's execute span — plus the
// per-fragment accuracy rows and link section in the report.
func TestDistributedAnalyzeMergesWorkerTrace(t *testing.T) {
	lb, err := exchange.StartLoopback(2, engine.FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	s, srv := newTestServer(t, func(c *Config) { c.ExchangeWindow = 4 })
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := postJSON(t, srv.URL+"/explain?analyze=1&trace=1&distributed=1",
		OptimizeRequest{Query: chainSQL(4, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed explain: %d: %s", resp.StatusCode, body)
	}
	var exp ExplainResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.TraceID == "" {
		t.Fatal("response carries no trace ID")
	}
	if exp.Analyze == nil {
		t.Fatal("no accuracy report")
	}
	if len(exp.Analyze.Fragments) == 0 {
		t.Error("accuracy report has no per-fragment worker rows")
	}
	for _, f := range exp.Analyze.Fragments {
		if f.ActLast <= 0 {
			t.Errorf("fragment %s[%d]: measured tl = %g, want > 0", f.Label, f.Part, f.ActLast)
		}
		if f.PredLastSec <= 0 {
			t.Errorf("fragment %s[%d]: predicted tl = %g, want > 0 (joined against descriptors)", f.Label, f.Part, f.PredLastSec)
		}
	}
	if len(exp.Analyze.Links) == 0 {
		t.Error("accuracy report has no interconnect link rows")
	}

	// The merged trace: fragment spans live under execute, carry the worker
	// measurements, and contain the stable join child.
	resp, body = getBody(t, srv.URL+"/debug/trace/"+exp.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace: %d: %s", resp.StatusCode, body)
	}
	var tj obs.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	execSpan := findSpan(tj.Root, "execute")
	if execSpan == nil {
		t.Fatal("no execute span in the merged trace")
	}
	fragments := 0
	for _, c := range execSpan.Children {
		if c.Name != "fragment" {
			continue
		}
		fragments++
		if c.Attrs["addr"] == "" {
			t.Error("fragment span missing the worker link address")
		}
		join := findSpan(c, "join")
		if join == nil {
			t.Fatal("fragment span has no join child")
		}
		if join.EndMicros < join.StartMicros {
			t.Errorf("join span times out of order: [%d, %d]", join.StartMicros, join.EndMicros)
		}
	}
	if fragments == 0 {
		t.Fatal("no worker fragment spans merged into the trace")
	}

	// The ring listing counts them without refetching the tree.
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
	found := false
	for _, e := range list.Entries {
		if e.ID == exp.TraceID {
			found = true
			if e.Fragments != fragments {
				t.Errorf("listing counts %d fragments, trace holds %d", e.Fragments, fragments)
			}
			if e.Workers == 0 {
				t.Error("listing counts no workers for a distributed trace")
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from the listing", exp.TraceID)
	}
}

// TestClusterMetricsFederation: GET /cluster/metrics scrapes each registered
// worker's own /healthz, reports per-worker liveness, and feeds the
// paroptd_cluster_worker_up gauges on /metrics.
func TestClusterMetricsFederation(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","worker":"up:1","stats":{"fragments_served":3}}`)) //nolint:errcheck
	}))
	defer healthy.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	s, srv := newTestServer(t, nil)
	if _, err := s.RegisterWorker("up:1", healthy.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterWorker("down:1", dead.URL); err != nil {
		t.Fatal(err)
	}

	resp, body := getBody(t, srv.URL+"/cluster/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster/metrics: %d: %s", resp.StatusCode, body)
	}
	var cm ClusterMetrics
	if err := json.Unmarshal(body, &cm); err != nil {
		t.Fatal(err)
	}
	if cm.Total != 2 || cm.Live != 1 {
		t.Errorf("live/total = %d/%d, want 1/2", cm.Live, cm.Total)
	}
	for _, ws := range cm.Workers {
		switch ws.Addr {
		case "up:1":
			if !ws.Up || len(ws.Health) == 0 {
				t.Errorf("healthy worker reported %+v", ws)
			}
		case "down:1":
			if ws.Up || ws.Error == "" {
				t.Errorf("dead worker reported %+v", ws)
			}
		default:
			t.Errorf("unexpected worker %q in snapshot", ws.Addr)
		}
	}

	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, `paroptd_cluster_worker_up{worker="up:1"} 1`) {
		t.Error("metrics missing up gauge for the healthy worker")
	}
	if !strings.Contains(text, `paroptd_cluster_worker_up{worker="down:1"} 0`) {
		t.Error("metrics missing down gauge for the dead worker")
	}
}

// TestRegisterWorkerKeepsEpochOnHTTPUpdate: re-registering the same address
// (heartbeats, or an upgrade that starts sending an HTTP URL) must not churn
// the membership epoch.
func TestRegisterWorkerKeepsEpochOnHTTPUpdate(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.RegisterWorker("w:1", ""); err != nil {
		t.Fatal(err)
	}
	epoch := s.Epoch()
	if _, err := s.RegisterWorker("w:1", "http://127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != epoch {
		t.Errorf("epoch advanced %d -> %d on a same-address re-register", epoch, got)
	}
	s.clusterMu.Lock()
	got := s.workers["w:1"]
	s.clusterMu.Unlock()
	if got != "http://127.0.0.1:9" {
		t.Errorf("http URL not updated: %q", got)
	}
}
