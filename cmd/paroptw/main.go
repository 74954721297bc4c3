// Command paroptw is the shared-nothing execution worker: it serves join
// fragments over TCP for paroptd's distributed analyze path. The daemon's
// coordinator dials one connection per fragment and streams hash-partitioned
// inputs under credit-based flow control, at the credit window the fragment
// carries (paroptd's -exchange-window); the worker runs the fragment's
// join (the same engine.FragmentJoin the in-process transport uses) and
// streams result batches back. When a placement map is installed at the
// daemon, fragments arrive with leaf-scan specs instead of streamed inputs
// and the worker sources those partitions from its local placement store —
// bootstrapped from GET /cluster/placement (catalog snapshot + assignments)
// and prewarmed with the shards this worker owns.
//
// Usage:
//
//	paroptw [-listen 127.0.0.1:0] [-daemon http://localhost:7077]
//	        [-advertise host:port]
//	        [-http 127.0.0.1:0] [-debug-addr localhost:0]
//
// With -daemon the worker registers its address at POST /cluster/register on
// startup (retrying once a second while the daemon is unreachable) and keeps
// re-registering on a heartbeat every 5 s — registration is idempotent, so a
// daemon restart that loses the membership table is healed by the next
// heartbeat instead of the worker silently dropping out of the cluster. The
// heartbeat also refreshes the placement map when its fingerprint changes,
// and a shipped scan planned against other statistics than the store's
// refetches it at once. After 120 consecutive failed registration attempts
// or heartbeats (about 2 minutes and 10 minutes) the worker exits nonzero so
// a supervisor can restart it. -advertise
// overrides the registered address when the listen address is not reachable
// as-is (e.g. binding 0.0.0.0). Without -daemon the worker just serves;
// register it by hand.
//
// The worker also serves its own observability plane on -http: GET /healthz
// (uptime, fragments served/failed, shipped scans, rows/batches emitted,
// result-window stall seconds, cached shard rows) and GET /metrics (the same
// counters as paroptw_* Prometheus families). The HTTP URL rides along with
// the registration, so the daemon's GET /cluster/metrics can scrape the
// fleet and report per-worker liveness. -http "" disables the listener (the
// worker then registers address-only, like pre-observability builds).
// -debug-addr starts a separate net/http/pprof listener, kept off both the
// fragment port and the metrics port.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
	"paropt/internal/placement"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "fragment listen address")
	daemon := flag.String("daemon", "", "paroptd base URL to register with (empty = no registration)")
	advertise := flag.String("advertise", "", "address to register at the daemon (default: the resolved listen address)")
	httpAddr := flag.String("http", "127.0.0.1:0", "listener for the worker's own /metrics and /healthz (empty = disabled)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("paroptw: %v", err)
	}
	addr := ln.Addr().String()
	reg := *advertise
	if reg == "" {
		reg = addr
	}
	log.Printf("paroptw: serving fragments on %s", addr)

	box := &storeBox{daemon: *daemon, self: reg, client: &http.Client{Timeout: 10 * time.Second}}
	stats := &exchange.WorkerStats{}
	w := &exchange.Worker{Join: engine.FragmentJoin, Store: box, ID: reg, Stats: stats}
	errc := make(chan error, 1)
	go func() { errc <- w.Serve(ln) }()

	// The worker's own observability plane. Its URL rides along with the
	// registration so the daemon can scrape the fleet.
	httpURL := ""
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("paroptw: http listener: %v", err)
		}
		httpURL = "http://" + hln.Addr().String()
		hsrv := &http.Server{
			Handler:           obsMux(reg, stats, box, time.Now()),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := hsrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				log.Printf("paroptw: http listener: %v", err)
			}
		}()
		defer hsrv.Close()
		log.Printf("paroptw: metrics on %s/metrics", httpURL)
	}
	if *debugAddr != "" {
		defer obs.ServePprof(*debugAddr, "paroptw").Close()
	}

	fatalc := make(chan error, 1)
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	if *daemon != "" {
		if err := registerWithRetry(*daemon, reg, httpURL); err != nil {
			log.Fatalf("paroptw: register with %s: %v", *daemon, err)
		}
		log.Printf("paroptw: registered %s with %s", reg, *daemon)
		if err := box.refresh(); err != nil {
			log.Printf("paroptw: placement prefetch: %v", err)
		}
		go heartbeatLoop(*daemon, reg, httpURL, box, fatalc, hbStop, hbDone)
	} else {
		close(hbDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("paroptw: %v", err)
	case err := <-fatalc:
		log.Fatalf("paroptw: %v", err)
	case <-sig:
	}
	log.Printf("paroptw: shutting down")
	// Quiesce the heartbeat before deregistering: an in-flight heartbeat
	// landing after the deregister would re-register the dying worker.
	close(hbStop)
	<-hbDone
	if *daemon != "" {
		if err := postCluster(*daemon, "/cluster/deregister", reg, ""); err != nil {
			log.Printf("paroptw: deregister: %v", err)
		}
	}
	ln.Close()
}

// heartbeatEvery is how often a registered worker re-registers and refreshes
// its placement; maxFailures is how many consecutive failed registration
// attempts or heartbeats it survives before exiting for its supervisor.
const (
	heartbeatEvery = 5 * time.Second
	maxFailures    = 120
)

// registerWithRetry posts the worker's address to the daemon, retrying with
// a fixed backoff while the daemon is unreachable (it may still be coming
// up), up to maxFailures attempts.
func registerWithRetry(daemon, addr, httpURL string) error {
	const backoff = time.Second
	var lastErr error
	for attempt := 1; attempt <= maxFailures; attempt++ {
		lastErr = postCluster(daemon, "/cluster/register", addr, httpURL)
		if lastErr == nil {
			return nil
		}
		if attempt == 1 || attempt%10 == 0 {
			log.Printf("paroptw: register attempt %d: %v (retrying)", attempt, lastErr)
		}
		time.Sleep(backoff)
	}
	return lastErr
}

// obsMux serves the worker's own observability endpoints: /healthz as JSON
// for the daemon's fleet scrape, /metrics as Prometheus text.
func obsMux(id string, stats *exchange.WorkerStats, box *storeBox, start time.Time) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		shards, rows := box.shardStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"status":         "ok",
			"worker":         id,
			"uptime_seconds": int64(time.Since(start).Seconds()),
			"stats":          stats.Snapshot(),
			"shards":         shards,
			"shard_rows":     rows,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteFamilies(w, workerFamilies(stats, box, start))
	})
	return mux
}

// workerFamilies is the worker's /metrics: every family it exports, in
// exposition order, each declared here and nowhere else (testdata/metrics.golden
// pins the list).
func workerFamilies(stats *exchange.WorkerStats, box *storeBox, start time.Time) []obs.Family {
	return []obs.Family{
		obs.Gauge("paroptw_uptime_seconds", "Seconds since the worker started.", func() int64 { return int64(time.Since(start).Seconds()) }),
		obs.Counter("paroptw_fragments_served_total", "Join fragments finished cleanly.", stats.FragmentsServed.Load),
		obs.Counter("paroptw_fragments_failed_total", "Join fragments that ended in an error frame.", stats.FragmentsFailed.Load),
		obs.Counter("paroptw_shipped_scans_total", "Scan sides sourced from the local placement store.", stats.ShippedScans.Load),
		obs.Counter("paroptw_rows_emitted_total", "Result rows streamed back to coordinators.", stats.RowsEmitted.Load),
		obs.Counter("paroptw_batches_emitted_total", "Result batches streamed back to coordinators.", stats.BatchesEmitted.Load),
		{Name: "paroptw_result_stall_seconds_total", Help: "Seconds blocked on the result credit window (backpressure from coordinators).", Type: "counter", Collect: func(sm *obs.Samples) {
			sm.Float(float64(stats.ResultStallNanos.Load()) / 1e9)
		}},
		obs.Gauge("paroptw_active_fragments", "Fragments currently executing.", stats.ActiveFragments.Load),
		obs.Gauge("paroptw_staged_bytes", "Bytes of shipped-scan partitions currently staged for in-flight fragments.", stats.StagedBytes.Load),
		obs.Counter("paroptw_fragments_cancelled_total", "Fragments abandoned on a coordinator cancel frame.", stats.Cancelled.Load),
		obs.Gauge("paroptw_store_shards", "Placement shards materialized in the local store.", func() int { n, _ := box.shardStats(); return n }),
		obs.Gauge("paroptw_store_rows", "Rows held across materialized placement shards.", func() int64 { _, rows := box.shardStats(); return rows }),
	}
}

// heartbeatLoop keeps the worker registered and its placement store fresh.
// Registration is idempotent on the daemon side (the epoch only advances on
// real membership changes), so the steady-state heartbeat is free; after a
// daemon restart it re-establishes membership instead of letting the worker
// drop out silently. maxFailures consecutive failures abort via fatalc.
// Closing stop ends the loop; done is closed on return so shutdown can wait
// out an in-flight heartbeat before deregistering.
func heartbeatLoop(daemon, addr, httpURL string, box *storeBox, fatalc chan<- error, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	fails := 0
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := postCluster(daemon, "/cluster/register", addr, httpURL); err != nil {
			fails++
			if fails == 1 || fails%10 == 0 {
				log.Printf("paroptw: heartbeat %d failed: %v", fails, err)
			}
			if fails >= maxFailures {
				fatalc <- fmt.Errorf("daemon unreachable for %d heartbeats: %w", fails, err)
				return
			}
			continue
		}
		if fails > 0 {
			log.Printf("paroptw: re-registered %s with %s after %d failed heartbeats", addr, daemon, fails)
			fails = 0
		}
		if err := box.refresh(); err != nil {
			log.Printf("paroptw: placement refresh: %v", err)
		}
	}
}

// postCluster posts the worker's address (plus its HTTP base URL when it has
// one) to the daemon's cluster endpoint.
func postCluster(base, path, addr, httpURL string) error {
	body, err := json.Marshal(placement.Register{Addr: addr, HTTP: httpURL})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

// storeBox is the worker's exchange.Store: a swappable placement store
// bootstrapped lazily from the daemon. The first shipped scan that arrives
// before a heartbeat has populated the store triggers a synchronous fetch,
// so a worker started mid-placement still serves it, and so does one the
// store refuses as planned against other statistics (the daemon re-installed
// since the last heartbeat). If the daemon has no placement, is unreachable,
// or holds the scan's catalog under another version than its default, the
// scan fails cleanly and the coordinator retries elsewhere or falls back to
// its own store.
type storeBox struct {
	daemon string
	self   string
	client *http.Client

	mu    sync.Mutex // serializes install; fp is the installed fingerprint
	fp    string
	store atomic.Pointer[placement.Store]
}

// shardStats reports the local store's materialized shard count and rows
// (zeros before any placement is installed).
func (b *storeBox) shardStats() (int, int64) {
	if st := b.store.Load(); st != nil {
		return st.ShardStats()
	}
	return 0, 0
}

func (b *storeBox) ScanPartition(spec exchange.ScanSpec, part, parts int) (*vec.Vec, error) {
	st := b.store.Load()
	switch {
	case st != nil:
		v, err := st.ScanPartition(spec, part, parts)
		if !errors.Is(err, placement.ErrStaleStats) || b.daemon == "" {
			return v, err
		}
	case b.daemon == "":
		return nil, errors.New("paroptw: shipped scan but no -daemon to fetch placement from")
	}
	// Install without prewarming: this scan needs one shard, now.
	if _, _, err := b.install(); err != nil {
		return nil, fmt.Errorf("paroptw: fetch placement: %w", err)
	}
	if st = b.store.Load(); st == nil {
		return nil, errors.New("paroptw: no placement installed at daemon")
	}
	return st.ScanPartition(spec, part, parts)
}

// refresh fetches the daemon's placement and rebuilds the local store when
// the fingerprint changed. A 404 (placement retired or never installed)
// clears the store so stale shards from an old catalog version are never
// served. The new store is published before it is prewarmed, and prewarmed
// outside the mutex: a store materializes shards on demand under its own
// locks, so a shipped scan arriving meanwhile waits for the one shard it
// needs, not for the whole prewarm (or a concurrent refresh's fetch).
func (b *storeBox) refresh() error {
	st, m, err := b.install()
	if err != nil || st == nil {
		return err
	}
	if err := st.Prewarm(m, b.self); err != nil {
		return fmt.Errorf("prewarm shards: %w", err)
	}
	return nil
}

// decodePlacement reads a GET /cluster/placement body: the document and —
// unless its fingerprint is known, which means nothing changed — the catalog
// this worker generates its shards from. A catalog over the rows the daemon
// itself may generate is refused here, before any shard is.
func decodePlacement(body io.Reader, known string) (*placement.Document, *catalog.Catalog, error) {
	// The daemon's own body bound: a catalog snapshot is a few KB per
	// relation, so a longer body is a misbehaving peer and fails the decode.
	var doc placement.Document
	if err := json.NewDecoder(io.LimitReader(body, placement.MaxBodyBytes)).Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("/cluster/placement: %w", err)
	}
	if doc.Map == nil {
		return nil, nil, errors.New("/cluster/placement: empty map")
	}
	if doc.Fingerprint == known {
		return &doc, nil, nil
	}
	cat, err := catalog.FromSnapshot(doc.Snapshot)
	if err == nil {
		err = storage.CheckDataRows(cat)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("placement snapshot: %w", err)
	}
	return &doc, cat, nil
}

// install is refresh's locked half: fetch, compare fingerprints, publish. It
// returns the newly published store and its map, or a nil store when nothing
// changed.
func (b *storeBox) install() (*placement.Store, *placement.Map, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	resp, err := b.client.Get(b.daemon + "/cluster/placement")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		if b.fp != "" {
			log.Printf("paroptw: placement retired at daemon; clearing local shards")
			b.fp = ""
			b.store.Store(nil)
		}
		return nil, nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("/cluster/placement: HTTP %d", resp.StatusCode)
	}
	doc, cat, err := decodePlacement(resp.Body, b.fp)
	if err != nil || cat == nil {
		return nil, nil, err
	}
	st := placement.NewStore(cat, doc.Map.Seed)
	b.store.Store(st)
	b.fp = doc.Fingerprint
	log.Printf("paroptw: placement %s installed (catalog %s, %d relations, epoch %d)",
		doc.Fingerprint, doc.Map.CatalogVersion, len(doc.Map.Assignments), doc.Epoch)
	return st, doc.Map, nil
}
