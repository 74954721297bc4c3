// Command paroptd runs the optimizer as a long-lived HTTP daemon: a
// fingerprint-keyed plan cache over the left-deep partial-order DP, a bounded
// worker pool with admission control, and Prometheus-style metrics.
//
// Usage:
//
//	paroptd [-addr :7077] [-schema schema.ddl | -workload portfolio]
//	        [-cpus 4] [-disks 4] [-nodes 1]
//	        [-workers N] [-queue 64] [-cache 512]
//	        [-timeout 30s] [-beam 0] [-traces 256] [-log text|json|none]
//	        [-debug-addr localhost:7078]
//	        [-query-log q.jsonl] [-exchange-window 16] [-drain 5s]
//
// Endpoints:
//
//	POST /optimize          {"query": "SELECT ...", "k": 1.5}  → plan JSON
//	POST /explain           same request (?trace=1 ?analyze=1) → plan + report
//	                        (?why=1 adds plan provenance — the chosen plan's
//	                         cost breakdown plus rejected alternatives;
//	                         ?distributed=1 executes join fragments on
//	                         registered paroptw workers)
//	POST /schema            {"ddl": "relation R card=1000 ..."}→ catalog version
//	                        ("default": true makes it the default — the
//	                         statistics-refresh path: the retired version's
//	                         cache entries are swept and drifted hot
//	                         templates re-searched before the reply)
//	POST /cluster/register   {"addr": "host:port"}             → worker joins
//	POST /cluster/deregister {"addr": "host:port"}             → worker leaves
//	GET  /cluster/workers                                      → membership + link traffic
//	GET  /cluster/metrics                                      → federated worker health
//	                        (scrapes each worker's own /healthz; feeds the
//	                         per-worker liveness gauges on /metrics)
//	POST /cluster/placement  {"catalog": v, "columns": {...}}  → install placement map
//	                        (partitions every relation across the registered
//	                         workers; later distributed analyzes ship leaf
//	                         scans to the owners instead of streaming inputs,
//	                         and searches price co-located joins as local)
//	GET  /cluster/placement  [?catalog=v]                      → map + catalog snapshot
//	                        (what paroptw bootstraps its shard store from)
//	GET  /healthz                                              → liveness
//	GET  /metrics                                              → Prometheus text
//	GET  /debug/traces                                         → trace entries
//	                        (each trace's ID, fragment spans and workers;
//	                         ?kind=search or ?kind=plan-change lists the
//	                         traces holding a DP search or a plan swap)
//	GET  /debug/trace/{id}                                     → one span tree: phases,
//	                                                             search with per-layer
//	                                                             spans, operators, worker
//	                                                             fragments, plan change
//	GET  /debug/workload                                       → per-template profiles
//	GET  /debug/queries                                        → in-flight queries with
//	                                                             live (tf, tl) progress + ETA
//	GET  /debug/queries/{id}                                   → one in-flight query
//	DELETE /debug/queries/{id}                                 → cancel it (workers too)
//
// The default catalog comes from -schema (DDL file) or -workload; requests
// can also carry inline "schema" DDL or a registered "catalog" version.
// SIGINT/SIGTERM drain in-flight requests for up to -drain, then cancel the
// stragglers (reason "shutdown") before exit.
//
// Workload analytics: every finished request — served, failed or cancelled —
// leaves one record (trace ID, /debug/queries ID, last phase, cancel reason,
// plan, latency) that feeds the per-fingerprint profiler behind
// /debug/workload and, with -query-log, an append-only JSONL log that
// `paropt replay` re-executes and `paropt workload` summarizes.
// A template whose explain-analyze row q-error EWMA has reached 2 over at
// least 2 samples (workload.DriftThreshold, workload.DriftMinSamples) is
// marked drifted; the next statistics refresh re-searches up to 4 of the
// hottest before it replies. Analyze requests
// execute at 1 024 rows per batch against synthetic data from seed 1; the
// text cache remembers the last 1 024 query templates and failed texts of
// at most 4 KiB.
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — kept off the service port so profiling is never exposed
// where the optimizer API is.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paropt/internal/machine"
	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/service"
	workloads "paropt/internal/workload"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address")
	schemaFile := flag.String("schema", "", "schema DDL file for the default catalog")
	wl := flag.String("workload", "portfolio", "built-in default catalog when -schema is absent (portfolio, tpch or none)")
	cpus := flag.Int("cpus", 4, "machine CPUs")
	disks := flag.Int("disks", 4, "machine disks")
	nodes := flag.Int("nodes", 1, "shared-nothing nodes the machine is spread across (1 = shared-memory)")
	workers := flag.Int("workers", 0, "concurrent searches (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "search queue depth before 429s")
	cacheCap := flag.Int("cache", 512, "plan-cache capacity (entries)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	beam := flag.Int("beam", 0, "cap cover sets at this many plans (0 = exact search)")
	traces := flag.Int("traces", 0, "request traces retained for /debug/trace (0 = default 256, negative disables tracing)")
	logMode := flag.String("log", "text", "request log format on stderr: text, json or none")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
	queryLog := flag.String("query-log", "", "append-only JSONL query log: one record per finished request, served, failed or cancelled (empty = disabled); feed it to `paropt replay` / `paropt workload`")
	exchWindow := flag.Int("exchange-window", 0, "credit window (frames in flight per direction, at most 1024) for distributed exchanges; fragments carry it to the workers (0 = exchange default)")
	drain := flag.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight queries before cancelling them")
	flag.Parse()

	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "none":
	default:
		log.Fatalf("paroptd: -log must be text, json or none (got %q)", *logMode)
	}

	cat, err := workloads.DefaultCatalog(*schemaFile, *wl, *disks)
	if err != nil {
		log.Fatalf("paroptd: %v", err)
	}

	var qlog *workload.Log
	if *queryLog != "" {
		qlog, err = obs.NewSink[workload.Record](*queryLog, 0)
		if err != nil {
			log.Fatalf("paroptd: %v", err)
		}
		// Closed after svc.Close() so every served request is flushed.
		defer func() {
			if err := qlog.Close(); err != nil {
				log.Printf("paroptd: query log: %v", err)
			}
		}()
		log.Printf("paroptd: query log at %s", *queryLog)
	}

	svc, err := service.New(service.Config{
		Catalog:        cat,
		Machine:        machine.Config{CPUs: *cpus, Disks: *disks, Networks: 1, Nodes: *nodes},
		CoverCap:       *beam,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheCapacity:  *cacheCap,
		RequestTimeout: *timeout,
		TraceCapacity:  *traces,
		Logger:         logger,
		QueryLog:       qlog,
		ExchangeWindow: *exchWindow,
	})
	if err != nil {
		log.Fatalf("paroptd: %v", err)
	}

	if *debugAddr != "" {
		defer obs.ServePprof(*debugAddr, "paroptd").Close()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if cat != nil {
		log.Printf("paroptd: serving on %s (default catalog: %d relations)", *addr, cat.NumRelations())
	} else {
		log.Printf("paroptd: serving on %s (no default catalog; use /schema)", *addr)
	}

	select {
	case err := <-errc:
		log.Fatalf("paroptd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("paroptd: shutting down (drain %s)", *drain)
	// Drain or cancel in-flight queries first — cancelled queries unwind
	// through the engine's checkpoints and tear down worker fragments — then
	// stop the HTTP listener.
	svc.Shutdown(*drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("paroptd: shutdown: %v", err)
	}
}
