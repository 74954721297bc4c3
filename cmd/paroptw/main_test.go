package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
	"paropt/internal/parser"
	"paropt/internal/placement"
	"paropt/internal/service"
	"paropt/internal/storage"
)

// TestWorkerFamilyTable: every row of the worker's family table has a valid,
// unique name, HELP text and a known TYPE, and the rendered exposition
// declares exactly the families testdata/metrics.golden pins, each with one
// sample (no worker family is labeled).
func TestWorkerFamilyTable(t *testing.T) {
	stats := &exchange.WorkerStats{}
	stats.FragmentsServed.Add(3)
	stats.ResultStallNanos.Add(5e8)
	fams := workerFamilies(stats, &storeBox{}, time.Now())
	nameRe := regexp.MustCompile(`^paroptw_[a-z0-9_]+$`)
	seen := map[string]bool{}
	for _, f := range fams {
		if !nameRe.MatchString(f.Name) || seen[f.Name] {
			t.Errorf("family name %q invalid or duplicated", f.Name)
		}
		seen[f.Name] = true
		if f.Help == "" || strings.ContainsAny(f.Help, "\n\\") {
			t.Errorf("%s: HELP %q empty or needs escaping", f.Name, f.Help)
		}
		if f.Type != "counter" && f.Type != "gauge" && f.Type != "histogram" {
			t.Errorf("%s: TYPE %q", f.Name, f.Type)
		}
	}

	var buf bytes.Buffer
	obs.WriteFamilies(&buf, fams)
	var types []string
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			types = append(types, line)
		case !strings.HasPrefix(line, "#"):
			samples++
		}
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, "\n") + "\n"; got != string(want) {
		t.Errorf("worker metric families drifted from testdata/metrics.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if samples != len(fams) {
		t.Errorf("%d samples for %d families", samples, len(fams))
	}
	for _, want := range []string{"paroptw_fragments_served_total 3\n", "paroptw_result_stall_seconds_total 0.5\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

const testDDL = `
relation R1 card=1000 pages=10 disk=0
column R1.a ndv=1000
relation R2 card=2000 pages=20 disk=1
column R2.a ndv=1000
`

// placementDaemon is a daemon with one registered worker ("w:1", registered
// through the worker's own postCluster) and an installed placement.
func placementDaemon(t testing.TB) (*service.Service, *httptest.Server) {
	t.Helper()
	cat, err := parser.ParseSchema(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	if err := postCluster(srv.URL, "/cluster/register", "w:1", "http://w:2"); err != nil {
		t.Fatal(err)
	}
	if addrs := svc.WorkerAddrs(); len(addrs) != 1 || addrs[0] != "w:1" {
		t.Fatalf("registered workers = %v", addrs)
	}
	if _, err := svc.InstallPlacement("", nil); err != nil {
		t.Fatal(err)
	}
	return svc, srv
}

// placementBody is the daemon's GET /cluster/placement document, decoded.
func placementBody(t testing.TB) placement.Document {
	t.Helper()
	_, daemon := placementDaemon(t)
	resp, err := http.Get(daemon.URL + "/cluster/placement")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc placement.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestInstallDecodesDaemonPlacement: the worker bootstraps its store from the
// daemon's own GET /cluster/placement document — the wire types both sides
// take from placement, not a mirror of them — and registers through the same
// Register body.
func TestInstallDecodesDaemonPlacement(t *testing.T) {
	svc, srv := placementDaemon(t)
	box := &storeBox{daemon: srv.URL, self: "w:1", client: srv.Client()}
	st, got, err := box.install()
	if err != nil || st == nil {
		t.Fatalf("install: store %v, err %v", st, err)
	}
	if want := svc.PlacementFor(got.CatalogVersion).Fingerprint(); got.Fingerprint() != want || box.fp != want {
		t.Errorf("installed placement %s (box %s), daemon has %s", got.Fingerprint(), box.fp, want)
	}
}

// TestInstallRejectsOversizedPlacement: the daemon's real placement document,
// padded past the body bound, fails the install instead of being read without
// limit, and leaves no store behind.
func TestInstallRejectsOversizedPlacement(t *testing.T) {
	doc := placementBody(t)
	doc.Fingerprint = strings.Repeat("x", placement.MaxBodyBytes)
	padded, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(padded) //nolint:errcheck
	}))
	defer srv.Close()
	box := &storeBox{daemon: srv.URL, self: "w:1", client: srv.Client()}
	if st, _, err := box.install(); err == nil || st != nil {
		t.Fatalf("oversized placement installed: store %v, err %v", st, err)
	}
	if box.store.Load() != nil || box.fp != "" {
		t.Error("a failed install must not publish a store")
	}
}

// TestInstallRejectsOversizedCatalog: a placement whose catalog would make
// the worker generate more rows than the daemon itself may is refused before
// a shard is generated, and leaves no store behind.
func TestInstallRejectsOversizedCatalog(t *testing.T) {
	doc := placementBody(t)
	doc.Snapshot.Relations[0].Card = 1 << 40
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body) //nolint:errcheck
	}))
	defer srv.Close()
	box := &storeBox{daemon: srv.URL, self: "w:1", client: srv.Client()}
	if err := box.refresh(); err == nil || !strings.Contains(err.Error(), "base rows") {
		t.Fatalf("oversized catalog: refresh err %v, want a refusal", err)
	}
	if box.store.Load() != nil || box.fp != "" {
		t.Error("a refused placement must not publish a store")
	}
}

// FuzzPlacementSnapshot feeds arbitrary bodies to the worker's side of GET
// /cluster/placement — decode, catalog.FromSnapshot, the row bound — which
// must never panic, and must accept only a document with a map and a catalog
// within the rows a worker may generate.
func FuzzPlacementSnapshot(f *testing.F) {
	doc := placementBody(f)
	real, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	doc.Snapshot.Relations[0].Card = 1 << 62
	huge, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge)
	f.Add(real[:len(real)/2])
	for _, seed := range []string{"", "null", "{}", `{"map":{}}`, `{"map":{},"snapshot":{"relations":[{"name":"R","columns":[{"name":"a"}]}]}}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// No decoded fingerprint equals invalid UTF-8, so every accepted
		// document reaches FromSnapshot and the bound.
		got, cat, err := decodePlacement(bytes.NewReader(body), "\xff")
		if err != nil {
			return
		}
		if got.Map == nil || cat == nil {
			t.Fatalf("accepted %q without a map or a catalog", body)
		}
		if err := storage.CheckDataRows(cat); err != nil {
			t.Fatalf("accepted %q over the row bound: %v", body, err)
		}
	})
}

// TestStaleScanRefetchesPlacement: a daemon that re-installed its placement
// over new statistics since the worker's last heartbeat gets a scan planned
// against them; the worker's store refuses it, refetches the placement once
// and serves the new statistics' rows.
func TestStaleScanRefetchesPlacement(t *testing.T) {
	svc, srv := placementDaemon(t)
	box := &storeBox{daemon: srv.URL, self: "w:1", client: srv.Client()}
	if err := box.refresh(); err != nil {
		t.Fatal(err)
	}
	cat, err := parser.ParseSchema(strings.Replace(testDDL, "relation R1 card=1000", "relation R1 card=1500", 1))
	if err != nil {
		t.Fatal(err)
	}
	svc.RefreshCatalog(cat)
	if _, err := svc.InstallPlacement("", nil); err != nil {
		t.Fatal(err)
	}
	spec := exchange.ScanSpec{Relation: "R1", Stats: cat.MustRelation("R1").StatsDigest()}
	v, err := box.ScanPartition(spec, 0, 1)
	if err != nil {
		t.Fatalf("scan planned against the re-installed statistics: %v", err)
	}
	if v.Len() != 1500 {
		t.Errorf("scan served %d rows, the re-installed R1 has 1500", v.Len())
	}
}
