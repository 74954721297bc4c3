package service

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
)

// sortedKeys returns m's keys sorted, for deterministic exposition order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// buildVersion resolves the module version stamped into the binary, or
// "dev" for test binaries and plain `go build` without VCS info.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
	}
	return "dev"
}

// Metrics holds the cumulative counters and histograms the serving path
// feeds. All fields are safe for concurrent use; what each one means is its
// row's HELP text in families, where every exported family is declared.
type Metrics struct {
	Requests       *obs.LabelCounter // by endpoint
	TextCacheHits  *obs.LabelCounter // by result: a template or a recorded failure
	Pruned         *obs.LabelCounter // by rejecting test, summed over every DP search run
	PlanChanges    *obs.LabelCounter // by source (planlog.go)
	QueryCancelled *obs.LabelCounter // by reason (inflight.go)

	CacheHits, CacheMisses, Evictions atomic.Int64
	CoverReuse, FullSearch, Deduped   atomic.Int64
	AnalyzeRuns, Rejected, Errors     atomic.Int64
	CatalogRetired, SweepReoptimized  atomic.Int64

	// Cumulative over distributed analyze runs (recordExchange).
	ExchangeFragments, ShippedScans, ExchangeRetries atomic.Int64

	// Latency is end to end; Phase, indexed by the rows of phases, decomposes
	// a request into parse (resolve + fingerprint), search (cache lookup
	// through cover-set computation), select (§2 re-filtering), render and —
	// for analyze requests — execute.
	Latency                        obs.Histogram
	Phase                          [phaseDone]obs.Histogram
	CostRelErr, SearchLayerSeconds obs.Histogram
}

// init builds the fixed-label counters and pins non-default bucket bounds.
func (m *Metrics) init() {
	m.Requests = obs.NewLabelCounter("endpoint", "optimize", "explain", "schema")
	m.TextCacheHits = obs.NewLabelCounter("result", "template", "error")
	m.Pruned = obs.NewLabelCounter("reason", "dominance", "work", "memory", "beam")
	m.PlanChanges = obs.NewLabelCounter("source", "search", "refresh", "sweeper", "placement")
	m.QueryCancelled = obs.NewLabelCounter("reason", CancelClient, CancelDeadline, CancelShutdown)
	m.CostRelErr.EnsureBuckets(obs.RelErrorBuckets)
}

// families is the daemon's /metrics: every family it exports, in exposition
// order, each declared here and nowhere else. Counter rows read the Metrics
// field the serving path bumps; gauge rows sample their source (queue, caches,
// profiler, query log, live registry, cluster maps under clusterMu) when the
// scrape happens. Every source is nil-safe, so a disabled subsystem reads 0.
// Adding a family is one row here plus its line in testdata/metrics.golden.
func (s *Service) families() []obs.Family {
	m := &s.met
	qlog := func(i int) func() int64 {
		return func() int64 { rec, drop, rot := s.qlog.Stats(); return [3]int64{rec, drop, rot}[i] }
	}
	perLink := func(name, help string, emit func(*obs.Samples, exchange.LinkSnapshot)) obs.Family {
		return obs.Family{Name: name, Help: help, Type: "counter", Collect: func(sm *obs.Samples) {
			for _, l := range s.linkSnapshots() {
				emit(sm, l)
			}
		}}
	}
	return []obs.Family{
		{Name: "paroptd_build_info", Help: "Build metadata; the value is always 1.", Type: "gauge", Collect: func(sm *obs.Samples) {
			sm.Int(1, "version", buildVersion(), "goversion", runtime.Version())
		}},
		{Name: "paroptd_uptime_seconds", Help: "Seconds since the service started.", Type: "gauge", Collect: func(sm *obs.Samples) {
			sm.Float(time.Since(s.start).Seconds())
		}},
		m.Requests.Family("paroptd_requests_total", "Requests by endpoint."),
		obs.Counter("paroptd_cache_hits_total", "Plan-cache hits.", m.CacheHits.Load),
		obs.Counter("paroptd_cache_misses_total", "Plan-cache misses.", m.CacheMisses.Load),
		obs.Counter("paroptd_cache_evictions_total", "Plan-cache LRU evictions.", m.Evictions.Load),
		obs.Counter("paroptd_cover_reuse_total", "Requests answered by re-filtering a cached cover set (no search).", m.CoverReuse.Load),
		obs.Counter("paroptd_full_search_total", "Partial-order DP searches run.", m.FullSearch.Load),
		obs.Counter("paroptd_deduped_total", "Requests deduplicated onto an identical in-flight search.", m.Deduped.Load),
		obs.Counter("paroptd_analyze_total", "Explain-analyze executions against synthetic data.", m.AnalyzeRuns.Load),
		obs.Counter("paroptd_rejected_total", "Requests rejected by admission control (429).", m.Rejected.Load),
		obs.Counter("paroptd_errors_total", "Requests that failed.", m.Errors.Load),
		m.TextCacheHits.Family("paroptd_textcache_hits_total", "Query texts answered from the text cache without parsing, by result: a template or a recorded parse/resolve failure."),
		obs.Counter("paroptd_sweeper_reoptimized_total", "Cache entries re-optimized by the drift sweep a catalog refresh runs.", m.SweepReoptimized.Load),
		m.Pruned.Family("paroptd_search_pruned_total", "Candidates pruned during DP search, by rejecting test."),
		m.PlanChanges.Family("paroptd_plan_changes_total", "Cached-plan swaps, by the input that moved (search: none moved, a determinism alarm)."),
		m.QueryCancelled.Family("paroptd_query_cancelled_total", "In-flight queries cancelled, by reason."),
		obs.Counter("paroptd_catalog_versions_retired", "Catalog versions retired by statistics refreshes (plan + text caches swept).", m.CatalogRetired.Load),
		obs.Counter("paroptd_exchange_fragments_total", "Join fragments dispatched to worker processes (re-dispatches count again).", m.ExchangeFragments.Load),
		obs.Counter("paroptd_exchange_shipped_scans_total", "Leaf-scan sides sourced at workers instead of streamed from the coordinator.", m.ShippedScans.Load),
		obs.Counter("paroptd_exchange_retries_total", "Fragment re-dispatches after a worker failure.", m.ExchangeRetries.Load),
		obs.Counter("paroptd_workload_overflow_total", "Fingerprints dropped because the workload profiler was full.", s.prof.Overflow),
		obs.Counter("paroptd_querylog_records_total", "Query-log records written to disk.", qlog(0)),
		obs.Counter("paroptd_querylog_dropped_total", "Query-log records dropped (writer behind or log closed).", qlog(1)),
		obs.Counter("paroptd_querylog_rotations_total", "Query-log size-based rotations.", qlog(2)),
		obs.Gauge("paroptd_queue_depth", "Optimization jobs waiting in the worker-pool queue.", s.pool.QueueDepth),
		obs.Gauge("paroptd_cache_entries", "Plan-cache entries resident.", s.cache.Len),
		obs.Gauge("paroptd_traces_retained", "Request traces retained for /debug/trace.", s.tracer.Len),
		obs.Gauge("paroptd_workload_fingerprints", "Query templates tracked by the workload profiler.", s.prof.Len),
		obs.Gauge("paroptd_workload_drifted", "Profiles whose EWMA q-error currently exceeds the drift threshold.", s.prof.DriftedCount),
		obs.Gauge("paroptd_textcache_entries", "Text-cache entries resident (templates and failures).", s.texts.Len),
		obs.Gauge("paroptd_cluster_workers", "Worker processes registered for distributed execution.", func() int { return len(s.WorkerAddrs()) }),
		obs.Gauge("paroptd_cluster_epoch", "Cluster-membership epoch (bumped per register/deregister).", s.Epoch),
		obs.Gauge("paroptd_placements", "Installed data-placement maps (one per catalog version).", s.placementCount),
		obs.Gauge("paroptd_queries_inflight", "Queries currently being served (live registry occupancy).", s.inflight.len),
		obs.Gauge("paroptd_query_progress_drift", "In-flight queries whose measured progress lags the predicted (tf, tl) timeline.", s.inflight.driftCount),
		perLink("paroptd_exchange_link_bytes_total", "Bytes moved per worker link by distributed joins.", func(sm *obs.Samples, l exchange.LinkSnapshot) {
			sm.Int(l.BytesSent, "link", l.Addr, "direction", "sent")
			sm.Int(l.BytesRecv, "link", l.Addr, "direction", "recv")
		}),
		perLink("paroptd_exchange_link_batches_total", "Tuple batches moved per worker link by distributed joins.", func(sm *obs.Samples, l exchange.LinkSnapshot) {
			sm.Int(l.BatchesSent, "link", l.Addr, "direction", "sent")
			sm.Int(l.BatchesRecv, "link", l.Addr, "direction", "recv")
		}),
		perLink("paroptd_exchange_stall_seconds_total", "Seconds exchange senders spent blocked on credit-window backpressure, per link and stream direction — the measured pipeline sync penalty.", func(sm *obs.Samples, l exchange.LinkSnapshot) {
			sm.Float(float64(l.StallLeftNanos)/1e9, "link", l.Addr, "direction", "left")
			sm.Float(float64(l.StallRightNanos)/1e9, "link", l.Addr, "direction", "right")
			sm.Float(float64(l.StallResultNanos)/1e9, "link", l.Addr, "direction", "result")
		}),
		perLink("paroptd_exchange_send_seconds_total", "Seconds spent writing frames to each worker link (wire time, coordinator side).", func(sm *obs.Samples, l exchange.LinkSnapshot) {
			sm.Float(float64(l.SendNanos)/1e9, "link", l.Addr)
		}),
		{Name: "paroptd_exchange_fallback_reason_total", Help: "Fragments the coordinator ran itself after every worker dispatch failed, by typed failure reason.", Type: "counter", Collect: func(sm *obs.Samples) {
			s.clusterMu.Lock()
			defer s.clusterMu.Unlock()
			for _, reason := range sortedKeys(s.fallbackReasons) {
				sm.Int(s.fallbackReasons[reason], "reason", reason)
			}
		}},
		// Workers registered since the last scrape are absent (unknown), not 0.
		{Name: "paroptd_cluster_worker_up", Help: "Per-worker liveness from the last /cluster/metrics scrape (1 = healthz answered).", Type: "gauge", Collect: func(sm *obs.Samples) {
			s.clusterMu.Lock()
			defer s.clusterMu.Unlock()
			for _, addr := range sortedKeys(s.workerUp) {
				var up int64
				if s.workerUp[addr] {
					up = 1
				}
				sm.Int(up, "worker", addr)
			}
		}},
		obs.HistogramFamily("paroptd_optimize_latency_seconds", "End-to-end request latency.", &m.Latency),
		{Name: "paroptd_phase_seconds", Help: "Request latency by phase.", Type: "histogram", Collect: func(sm *obs.Samples) {
			for i := range m.Phase {
				sm.Histogram(&m.Phase[i], "phase", phases[i].name)
			}
		}},
		obs.HistogramFamily("paroptd_cost_rel_error", "Absolute relative error of calibrated per-operator (tf, tl) predictions, from analyze runs.", &m.CostRelErr),
		obs.HistogramFamily("paroptd_search_layer_seconds", "Wall time per DP search layer (one observation per layer per search).", &m.SearchLayerSeconds),
	}
}
