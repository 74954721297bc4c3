package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/placement"
	"paropt/internal/storage"
)

// TestServedPathsBuildNoRowView: a table is stored as its columns, and the
// row-major view exists for row-at-a-time oracles only. After a local and a
// distributed analyze, a scan through the coordinator's fallback store and a
// worker prewarm over whole tables, no table of the analyze database or of
// either store has built its Rows — any served path that reads a table
// through Database.Table instead of Database.Relation fails here.
func TestServedPathsBuildNoRowView(t *testing.T) {
	s, srv := newTestServer(t, nil)
	ctx := context.Background()
	s.mu.RLock()
	version := s.defaultVersion
	cat := s.catalogs[version]
	s.mu.RUnlock()

	// The first worker's store holds whole tables, as the fallback store
	// does; the second generates what it owns.
	workerDB := storage.NewDatabase(cat, dataSeed)
	stores := []*placement.Store{placement.NewStore(cat, dataSeed), placement.NewStore(cat, dataSeed)}
	for _, tab := range workerDB.Tables {
		stores[0].AddTable(tab)
	}
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: engine.FragmentJoin, Store: stores[0]},
		{Join: engine.FragmentJoin, Store: stores[1]},
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
	resp, body := postJSON(t, srv.URL+"/cluster/placement", PlacementRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: status %d: %s", resp.StatusCode, body)
	}
	var doc placement.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	for i, addr := range lb.Addrs() {
		if err := stores[i].Prewarm(doc.Map, addr); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 7), Analyze: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 7), Analyze: true, Distributed: true}); err != nil {
		t.Fatalf("distributed analyze: %v", err)
	}
	d, err := s.analyzeData(version, cat)
	if err != nil {
		t.Fatal(err)
	}
	fstore := s.fallbackStore(d, cat)
	for _, name := range cat.RelationNames() {
		v, err := fstore.ScanPartition(exchange.ScanSpec{Relation: name, HashCol: 0}, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}

	for what, db := range map[string]*storage.Database{"analyze database": d.db, "worker store": workerDB} {
		if len(db.Tables) != cat.NumRelations() {
			t.Fatalf("%s holds %d tables, want %d", what, len(db.Tables), cat.NumRelations())
		}
		for name, tab := range db.Tables {
			if tab.Rows != nil {
				t.Errorf("%s: table %s built its row view on a served path", what, name)
			}
		}
	}
}
