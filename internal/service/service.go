// Package service runs the optimizer as a long-lived daemon: a serving
// layer that amortizes partial-order DP search cost across queries. One-shot
// use (the CLIs) pays full catalog setup and a fresh search per query; the
// service instead
//
//   - canonicalizes each query into a fingerprint (internal/query), so
//     parameter-varying instances of one template share a plan;
//   - caches the *cover set* — what any bound can reach of the root Pareto
//     frontier (core.CoverSet) plus the §2 work-optimal baseline — in a
//     sharded LRU keyed by (fingerprint, catalog version, placement) — the
//     machine and optimizer options are the Service's own — so a later
//     request with a different work bound (throughput-degradation k,
//     cost–benefit k) is answered by re-filtering the cached frontier
//     without re-running the search, and what the response says about the
//     chosen cover member is rendered once and served as bytes thereafter;
//   - deduplicates identical in-flight searches (singleflight), bounds
//     concurrent searches with a worker pool, and rejects on a full queue
//     (HTTP 429) instead of queueing unboundedly;
//   - exports counters and latency histograms at /metrics.
//
// The HTTP surface (stdlib net/http only) is in http.go; cmd/paroptd wires
// it to a listener with graceful shutdown.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
	"paropt/internal/obs"
	"paropt/internal/obs/accuracy"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/placement"
	"paropt/internal/query"
	"paropt/internal/search"
	"paropt/internal/storage"
)

// ErrOverloaded is returned when the worker-pool queue is full; HTTP maps
// it to 429 Too Many Requests.
var ErrOverloaded = errors.New("service: optimizer overloaded")

// ErrClosed is returned after Close; HTTP maps it to 503.
var ErrClosed = errors.New("service: shutting down")

// badRequestError marks client errors (parse/validation); HTTP maps it to
// 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// dataSeed seeds the deterministic synthetic database analyze requests
// execute against, placement shards and worker stores alike. One database is
// generated per catalog version on first use.
const dataSeed = 1

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Catalog is the default catalog served when a request names none.
	// Optional: requests can carry inline schema DDL or a registered
	// catalog version instead.
	Catalog *catalog.Catalog
	// Machine is the target machine; zero value means the default
	// 4-CPU/4-disk/1-net node.
	Machine machine.Config
	// CoverCap bounds cover sets (beam search) when > 0.
	CoverCap int
	// Workers bounds concurrent searches; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds searches waiting for a worker; beyond it requests
	// are rejected with ErrOverloaded. Default 64.
	QueueDepth int
	// CacheCapacity sizes the plan cache; default 512 entries in total.
	CacheCapacity int
	// RequestTimeout bounds each request end to end (queue wait + search +
	// analyze execution); default 30s. The deadline rides the request
	// context into the engine's cancellation checkpoints, so a timed-out
	// analyze execution is preempted, not just abandoned. The DP search
	// itself is the one exception — it completes in the worker and
	// populates the cache for later requests.
	RequestTimeout time.Duration
	// TraceCapacity sizes the ring of request traces retained for the
	// /debug/trace endpoints. 0 means the default (256); negative disables
	// tracing entirely (requests then carry no trace ID and the traced
	// code paths allocate nothing).
	TraceCapacity int
	// Logger receives structured per-request log lines (request ID,
	// fingerprint, cache outcome, latency). Nil discards them.
	Logger *slog.Logger
	// QueryLog, when non-nil, receives one JSONL record per finished request
	// — served, failed or cancelled — the durable tail of the live
	// /debug/queries registry. The caller owns the log and closes it after
	// the service's Close; nil disables logging at zero cost.
	QueryLog *workload.Log
	// ExchangeWindow overrides the credit window (frames in flight per
	// direction) for distributed exchanges when > 0; 0 keeps the exchange
	// default, and New refuses one above exchange.MaxWindow. Every fragment
	// carries it to its worker. Small windows make backpressure stalls
	// visible on /metrics, which is how EXPERIMENTS §OB3 measures the
	// pipeline sync penalty.
	ExchangeWindow int
	// PlanLogPath, when non-empty, additionally appends every plan change as
	// one JSON line to this file, so swaps survive restarts.
	PlanLogPath string
}

// Service is the optimizer daemon. Safe for concurrent use.
type Service struct {
	cfg  Config
	mcfg machine.Config

	mu             sync.RWMutex
	catalogs       map[string]*catalog.Catalog // keyed by version fingerprint
	defaultVersion string

	cache   *planCache
	flights flightGroup
	pool    *workerPool
	met     Metrics
	tracer  *obs.Tracer
	logger  *slog.Logger
	start   time.Time
	closed  bool

	// texts answers repeated query texts without parsing them (a template or
	// a recorded failure); prof aggregates served traffic per fingerprint;
	// qlog persists one record per request (nil, and a no-op, without
	// Config.QueryLog).
	texts *textCache
	prof  *workload.Profiler
	qlog  *workload.Log

	// clusterMu guards the distributed-execution state: workers is the
	// registered worker-process membership, epoch the membership epoch
	// (bumped on every register/deregister so in-flight queries can detect
	// churn and re-dispatch fragments), placements the installed data-
	// placement maps keyed by catalog version, links the cumulative
	// per-address exchange traffic from distributed analyze runs (see
	// cluster.go).
	clusterMu       sync.Mutex
	workers         map[string]string // exchange addr → worker HTTP base URL ("" when unknown)
	epoch           int64
	placements      map[string]installedPlacement
	links           map[string]*exchange.LinkSnapshot
	fallbackReasons map[string]int64 // cumulative typed fallback reasons
	workerUp        map[string]bool  // liveness from the last /cluster/metrics scrape

	// Plan-change audit (planlog.go): planfile is the optional JSONL
	// persister (nil when Config.PlanLogPath is empty), lastPlans the
	// per-fingerprint "before" side swap detection compares against. The
	// in-memory record of a search or a swap is its trace.
	planfile  *obs.Sink[PlanChange]
	planMu    sync.Mutex
	lastPlans map[string]prevPlan

	// inflight is the live-query registry behind /debug/queries: every
	// served request is admitted with a cancellable context and retired
	// when it finishes. Never nil.
	inflight *inflightRegistry
	stopped  bool // teardown ran (distinct from closed: Shutdown rejects first, tears down later)

	// dbs holds the synthetic data of the analyzeVersions catalog versions
	// analyzed last, generated lazily. dbMu serializes generating a database
	// and building a fallback store: a mutex of their own, so neither ever
	// blocks the serving path's s.mu.
	dbMu sync.Mutex
	dbs  lru[*analyzeData]

	// searchHook, when non-nil, runs at the start of every search on the
	// worker goroutine — a test hook that makes overload and timeout
	// scenarios deterministic. Set it before serving traffic.
	searchHook func()
}

// New builds and starts a service (its worker pool runs until Close). It
// searches with left-deep partial-order DP, whose cover set is what the plan
// cache keeps; `paropt -alg` runs the other algorithms offline.
func New(cfg Config) (*Service, error) {
	mcfg := cfg.Machine
	if mcfg.CPUs == 0 && mcfg.Disks == 0 {
		mcfg = machine.DefaultConfig()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 512
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ExchangeWindow > exchange.MaxWindow {
		return nil, fmt.Errorf("service: exchange window %d above %d", cfg.ExchangeWindow, exchange.MaxWindow)
	}
	s := &Service{
		cfg:             cfg,
		mcfg:            mcfg,
		catalogs:        make(map[string]*catalog.Catalog),
		pool:            newWorkerPool(cfg.Workers, cfg.QueueDepth),
		logger:          cfg.Logger,
		workers:         make(map[string]string),
		placements:      make(map[string]installedPlacement),
		links:           make(map[string]*exchange.LinkSnapshot),
		fallbackReasons: make(map[string]int64),
		workerUp:        make(map[string]bool),
		lastPlans:       make(map[string]prevPlan),
		inflight:        newInflightRegistry(),
		prof:            workload.NewProfiler(),
		texts:           newTextCache(),
		qlog:            cfg.QueryLog,
		start:           time.Now(),
	}
	if cfg.PlanLogPath != "" {
		pf, err := obs.NewSink[PlanChange](cfg.PlanLogPath, 0)
		if err != nil {
			return nil, fmt.Errorf("service: plan log: %w", err)
		}
		s.planfile = pf
	}
	if s.logger == nil {
		s.logger = obs.DiscardLogger()
	}
	if cfg.TraceCapacity >= 0 {
		s.tracer = obs.NewTracer(cfg.TraceCapacity)
	}
	s.met.init()
	s.cache = newPlanCache(cfg.CacheCapacity, func() { s.met.Evictions.Add(1) })
	s.dbs.init(analyzeVersions, nil)
	if cfg.Catalog != nil {
		s.defaultVersion = s.RegisterCatalog(cfg.Catalog)
	}
	return s, nil
}

// Close stops accepting requests, cancels in-flight queries and drains
// in-flight searches. The query log (owned by the
// caller) stays open. For a graceful stop that lets running queries finish
// first, use Shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if !already {
		s.inflight.cancelAll(CancelShutdown)
		s.pool.Close()
		s.planfile.Close() //nolint:errcheck // audit file is best-effort
	}
}

// Shutdown is the graceful stop: it rejects new requests immediately, waits
// up to drain for in-flight queries to finish on their own, cancels the
// stragglers (reason "shutdown"), and then tears the service down. A
// non-positive drain cancels immediately.
func (s *Service) Shutdown(drain time.Duration) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	deadline := time.Now().Add(drain)
	for s.inflight.len() > 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := s.inflight.cancelAll(CancelShutdown); n > 0 {
		s.logger.Info("shutdown: cancelled in-flight queries", "count", n)
		// Give the cancelled queries a beat to unwind through their
		// checkpoints before the worker pool closes under them.
		grace := time.Now().Add(2 * time.Second)
		for s.inflight.len() > 0 && time.Now().Before(grace) {
			time.Sleep(25 * time.Millisecond)
		}
	}
	s.Close()
}

// Metrics exposes the service counters (read-only use expected).
func (s *Service) Metrics() *Metrics { return &s.met }

// Tracer exposes the request-trace ring, or nil when tracing is disabled.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// CacheLen is the resident plan-cache entry count.
func (s *Service) CacheLen() int { return s.cache.Len() }

// InvalidateCache drops every cached plan — for operators, after an
// out-of-band statistics refresh, and for benchmarks that need a cold
// cache. (In-band refreshes need no invalidation: a changed catalog has a
// new fingerprint and misses naturally.)
func (s *Service) InvalidateCache() { s.cache.PurgeWhere(func(string) bool { return true }) }

// RegisterCatalog registers a catalog under its version fingerprint and
// returns the version. Idempotent.
func (s *Service) RegisterCatalog(cat *catalog.Catalog) string {
	v := cat.Fingerprint()
	s.mu.Lock()
	if _, ok := s.catalogs[v]; !ok {
		s.catalogs[v] = cat
	}
	if s.defaultVersion == "" {
		s.defaultVersion = v
	}
	s.mu.Unlock()
	return v
}

// RefreshCatalog registers cat and makes it the service default — the
// statistics-refresh entry point. Unlike RegisterCatalog it always moves the
// default, and it *retires* the previous default version: the retired
// catalog is dropped, its plan-cache and text-cache entries are swept
// eagerly (instead of aging out of the LRU while still consuming capacity),
// and its synthetic analyze database is released. Then, before it returns, the
// drift sweep closes the loop (sweeper.go): up to sweepLimit hot templates
// whose accuracy had drifted are re-optimized against the refreshed
// statistics, so their first post-refresh request hits a warm entry instead
// of paying a search.
func (s *Service) RefreshCatalog(cat *catalog.Catalog) string {
	v := cat.Fingerprint()
	s.mu.Lock()
	old := s.defaultVersion
	s.catalogs[v] = cat
	s.defaultVersion = v
	if old != "" && old != v {
		delete(s.catalogs, old)
	}
	s.mu.Unlock()
	if old != "" && old != v {
		s.retireCatalog(old)
		s.resweep()
	}
	return v
}

// retireCatalog garbage-collects every artifact keyed under a retired
// catalog version. The plan cache's keys embed the version as "|version|",
// the text cache's start with it and a separator byte below ' '; neither
// separator can occur inside a version fingerprint (hex), so the sweeps are
// exact.
func (s *Service) retireCatalog(version string) {
	plans := s.cache.PurgeWhere(func(key string) bool {
		return strings.Contains(key, "|"+version+"|")
	})
	texts := s.texts.PurgeWhere(func(key string) bool {
		return len(key) > len(version) && key[len(version)] < ' ' && strings.HasPrefix(key, version)
	})
	s.dbs.PurgeWhere(func(key string) bool { return key == version })
	s.clusterMu.Lock()
	delete(s.placements, version)
	s.clusterMu.Unlock()
	s.met.CatalogRetired.Add(1)
	s.logger.Info("catalog retired", "version", version, "plans", plans, "texts", texts)
}

// Workload exposes the per-fingerprint profiler.
func (s *Service) Workload() *workload.Profiler { return s.prof }

// RegisterSchema parses schema DDL (internal/parser grammar) and registers
// the resulting catalog, returning its version.
func (s *Service) RegisterSchema(ddl string) (string, error) {
	cat, err := parser.ParseSchema(ddl)
	if err != nil {
		return "", badRequestError{err}
	}
	return s.RegisterCatalog(cat), nil
}

// OptimizeRequest is one optimization request. Exactly one catalog source
// applies: inline Schema DDL, a registered Catalog version, or the service
// default.
type OptimizeRequest struct {
	// Query is the SQL-ish SELECT text (internal/parser grammar).
	Query string `json:"query"`
	// Schema optionally carries inline DDL; it is registered on the fly
	// (idempotently) and used for this request.
	Schema string `json:"schema,omitempty"`
	// Catalog optionally names a registered catalog version (from /schema).
	Catalog string `json:"catalog,omitempty"`
	// K, when > 0, applies the §2 throughput-degradation bound Wp ≤ K·Wo.
	K float64 `json:"k,omitempty"`
	// CostBenefit, when > 0, applies the §2 cost–benefit bound instead.
	CostBenefit float64 `json:"costBenefit,omitempty"`
	// Trace includes the DP search trace text in Explain responses (also
	// settable as ?trace=1 on POST /explain). Cache hits return the trace
	// captured when the cover set was computed, labeled as replayed.
	Trace bool `json:"trace,omitempty"`
	// Why (Explain only; ?why=1) includes the plan provenance: the chosen
	// plan's full cost-descriptor breakdown plus the top rejected frontier
	// alternatives with the reason each one lost.
	Why bool `json:"why,omitempty"`
	// Analyze (Explain only; ?analyze=1) executes the chosen plan against
	// deterministic synthetic data and reports per-operator predicted vs
	// actual (tf, tl) descriptors with relative errors.
	Analyze bool `json:"analyze,omitempty"`
	// AnalyzeParallel caps the clone degree of every join Analyze executes:
	// each runs min(annotated degree, AnalyzeParallel) clones, so it can only
	// lower the plan's own degrees, which never exceed the machine's CPUs. 0
	// means the machine's CPU count, over all its nodes.
	AnalyzeParallel int `json:"analyzeParallel,omitempty"`
	// Distributed (Explain+Analyze only; ?distributed=1) executes the plan's
	// join fragments on the registered worker processes instead of
	// in-process, streaming partitioned batches over TCP. Requires at least
	// one registered worker (POST /cluster/register).
	Distributed bool `json:"distributed,omitempty"`
}

// bound maps the request knobs to a §2 bound (nil = unbounded).
func (r *OptimizeRequest) bound() search.Bound {
	switch {
	case r.K > 0:
		return search.ThroughputDegradation{K: r.K}
	case r.CostBenefit > 0:
		return search.CostBenefit{K: r.CostBenefit}
	}
	return nil
}

// PlanSummary is the cost summary of a served plan.
type PlanSummary struct {
	ResponseTime float64 `json:"responseTime"`
	Work         float64 `json:"work"`
}

// OptimizeResponse is the service's answer.
type OptimizeResponse struct {
	// Fingerprint is the query's canonical fingerprint; Catalog the catalog
	// version — together with the version's installed placement they key
	// the plan cache.
	Fingerprint string `json:"fingerprint"`
	Catalog     string `json:"catalog"`
	// Cache is "hit" or "miss"; Deduped marks misses that joined another
	// request's in-flight search. CoverSetReused is true when the plan came
	// from re-filtering a cached cover set rather than a fresh search.
	Cache          string `json:"cache"`
	Deduped        bool   `json:"deduped,omitempty"`
	CoverSetReused bool   `json:"coverSetReused"`
	// CoverSize is the root Pareto frontier's size; Bound names the §2
	// bound applied during re-filtering, if any.
	CoverSize int    `json:"coverSize"`
	Bound     string `json:"bound,omitempty"`
	// PlanSignature is the chosen join tree in functional notation — the
	// deterministic plan identity the query log records and replay compares.
	PlanSignature string `json:"planSignature"`
	// Summary and Baseline give the chosen plan's costs and the
	// work-optimal baseline it is bounded against.
	Summary  PlanSummary  `json:"summary"`
	Baseline *PlanSummary `json:"baseline,omitempty"`
	// Plan is the full plan rendering (core.PlanJSON shape).
	Plan json.RawMessage `json:"plan"`
	// ElapsedMicros is the service-side latency.
	ElapsedMicros int64 `json:"elapsedMicros"`
	// TraceID identifies this request's span tree; fetch it from
	// /debug/trace/{id}. Empty when tracing is disabled.
	TraceID string `json:"traceId,omitempty"`
}

// ExplainResponse extends OptimizeResponse with human-readable renderings.
type ExplainResponse struct {
	OptimizeResponse
	// Text is the full Explain report: query, join tree, operator tree with
	// Example 1 style annotations, cost summary.
	Text string `json:"text"`
	// Breakdown is the per-operator cost-breakdown table (resource demands
	// and cumulative descriptors).
	Breakdown string `json:"breakdown"`
	// SearchTrace is the DP search trace text (requests with Trace set);
	// SearchTraceCached marks it as replayed from the cached cover set
	// rather than freshly produced by this request's search.
	SearchTrace       string `json:"searchTrace,omitempty"`
	SearchTraceCached bool   `json:"searchTraceCached,omitempty"`
	// Why is the plan provenance (requests with Why set): chosen-plan cost
	// breakdown plus top rejected alternatives with loss reasons. WhyText is
	// its report rendering.
	Why     *core.Provenance `json:"why,omitempty"`
	WhyText string           `json:"whyText,omitempty"`
	// Analyze is the predicted-vs-actual accuracy report and AnalyzeTable
	// its text rendering (requests with Analyze set).
	Analyze      *accuracy.Report `json:"analyze,omitempty"`
	AnalyzeTable string           `json:"analyzeTable,omitempty"`
}

// resolved is what resolve established about a request: its catalog, its
// template's fingerprint and plan-cache key, and its query — parsed (q), or
// on a text-cache hit the template's (tmpl), which servedPlan.query binds to
// the request's literals where a query is read.
type resolved struct {
	cat              *catalog.Catalog
	version, fp, key string
	q, tmpl          *query.Query
}

// resolve finds the request's catalog and answers its text from the text
// cache (textcache.go) or parses it there. A template hit allocates nothing.
func (s *Service) resolve(req *OptimizeRequest) (r resolved, err error) {
	switch {
	case req.Schema != "":
		r.version, err = s.RegisterSchema(req.Schema)
		if err != nil {
			return r, err
		}
	case req.Catalog != "":
		r.version = req.Catalog
	default:
		s.mu.RLock()
		r.version = s.defaultVersion
		s.mu.RUnlock()
		if r.version == "" {
			return r, badRequestError{errors.New("service: no default catalog; supply schema DDL or a catalog version")}
		}
	}
	s.mu.RLock()
	r.cat = s.catalogs[r.version]
	s.mu.RUnlock()
	if r.cat == nil {
		return r, badRequestError{fmt.Errorf("service: unknown catalog version %q", r.version)}
	}
	if req.Query == "" {
		return r, badRequestError{errors.New("service: empty query")}
	}
	if len(r.version)+1+len(req.Query) > textKeyMax {
		return s.parse(r, req.Query, nil)
	}
	var buf [textKeyMax]byte
	k, tmpl := parser.Mask(append(append(buf[:0], r.version...), templateSep), req.Query)
	if !tmpl {
		k = append(append(k[:len(r.version)], failureSep), req.Query...)
	}
	if e, ok := s.texts.getBytes(k); ok {
		switch {
		case e.err == nil:
			s.met.TextCacheHits.Add("template", 1)
			r.tmpl, r.fp, r.key = e.q, e.fp, s.templateKey(e, r.version)
			return r, nil
		case e.text == req.Query:
			s.met.TextCacheHits.Add("error", 1)
			return r, e.err
		}
	}
	return s.parse(r, req.Query, k)
}

// parse is resolve's miss: parse and fingerprint the text, and — when k is a
// text-cache key — record the outcome under it (a text that is not a
// template, keyed as such, can only fail).
func (s *Service) parse(r resolved, text string, k []byte) (resolved, error) {
	q, err := parser.ParseQuery(text, r.cat)
	if err != nil {
		err = badRequestError{err}
		if k != nil {
			s.texts.Put(string(k), &textEntry{text: text, err: err})
		}
		return r, err
	}
	e := &textEntry{q: q, fp: query.Fingerprint(q)}
	r.q, r.fp, r.key = q, e.fp, s.templateKey(e, r.version)
	if k != nil {
		s.texts.Put(string(k), e)
	}
	return r, nil
}

// templateKey is e's plan-cache key under version's current placement,
// rebuilt only when an install has changed the placement since it was built.
func (s *Service) templateKey(e *textEntry, version string) string {
	pfp := s.placementFP(version)
	if pk := e.key.Load(); pk != nil && pk.placement == pfp {
		return pk.key
	}
	pk := &placedKey{pfp, s.keyFor(e.fp, version, pfp)}
	e.key.Store(pk)
	return pk.key
}

// cacheKey builds a plan-cache key. It embeds the catalog version between
// "|" separators (retireCatalog's purge matches on that) and the installed
// placement's fingerprint, so installing or changing a placement re-costs
// plans instead of serving cover sets computed without it. The machine and
// the optimizer options, the rest of what a cover set depends on, are fixed
// for the Service that owns the cache, so no key spells them out.
func (s *Service) cacheKey(fp, version string) string {
	return s.keyFor(fp, version, s.placementFP(version))
}

func (s *Service) keyFor(fp, version, placementFP string) string {
	return fp + "|" + version + "|pl=" + placementFP + "|"
}

// placementFP is the fingerprint of version's installed placement, "none"
// without one.
func (s *Service) placementFP(version string) string {
	if p := s.placementFor(version); p.m != nil {
		return p.fp
	}
	return "none"
}

// entryFor returns the cache entry for the key, running (or joining) a
// search on miss. hit reports a cache hit, deduped a joined search.
func (s *Service) entryFor(ctx context.Context, p *servedPlan, r *resolved) (e *cacheEntry, hit, deduped bool, err error) {
	if e, ok := s.cache.Get(r.key); ok {
		s.met.CacheHits.Add(1)
		s.met.CoverReuse.Add(1)
		return e, true, false, nil
	}
	s.met.CacheMisses.Add(1)
	e, deduped, err = s.searchFor(ctx, r.key, r.fp, r.version, r.cat, p.query(), "search")
	switch {
	case deduped && err == nil:
		s.met.Deduped.Add(1)
	case !deduped && errors.Is(err, ErrOverloaded):
		s.met.Rejected.Add(1)
	}
	return e, false, deduped, err
}

// searchFor is the one door into the search, for request misses (source
// "search") and drift sweeps ("sweeper") alike: the flight group runs one
// search per key at a time, the worker pool bounds how many run and wait
// (a full queue is ErrOverloaded, never a longer queue), and the result lands
// in the cache. shared reports that this caller joined another's search.
func (s *Service) searchFor(ctx context.Context, key, fp, version string, cat *catalog.Catalog, q *query.Query, source string) (e *cacheEntry, shared bool, err error) {
	return s.flights.Do(ctx, key, func() (*cacheEntry, error) {
		// A request re-checks under the flight: the entry may have landed
		// between its miss and this leader starting. A sweep is here to
		// replace the entry, so it searches regardless.
		if source == "search" {
			if e, ok := s.cache.Get(key); ok {
				return e, nil
			}
		}
		placed := s.placedConfig(version)
		// The search span lives on the flight leader's trace (a request's or
		// a sweep's); followers see only their own wait. The worker ends it,
		// so a leader that times out still gets the span's true extent
		// recorded.
		_, sp := obs.StartSpan(ctx, "search")
		type result struct {
			e   *cacheEntry
			err error
		}
		ch := make(chan result, 1)
		if !s.pool.TrySubmit(func() {
			e, err := s.runSearch(cat, q, fp, placed, sp, source, version)
			sp.Err(err)
			sp.End()
			if err == nil {
				s.cache.Put(key, e)
			}
			ch <- result{e, err}
		}) {
			sp.Err(ErrOverloaded)
			sp.End()
			return nil, ErrOverloaded
		}
		select {
		case r := <-ch:
			return r.e, r.err
		case <-ctx.Done():
			// The worker keeps searching and still populates the cache;
			// only this caller gives up.
			return nil, ctx.Err()
		}
	})
}

// runSearch builds a session and computes the reusable cover set. What the
// search did is cover.Stats, which rides the cache entry: the trace's search
// span and its dp-layer children and a trace-requesting explain's text are
// both derived from it. source attributes the search ("search" for request
// misses, "sweeper" for drift re-optimizations) on the span, in the
// layer-seconds histogram and prune-reason counters, and — when the
// representative plan swapped — in the plan-change audit.
func (s *Service) runSearch(cat *catalog.Catalog, q *query.Query, fp string, placed map[string]cost.PlacedRelation, sp *obs.Span, source, version string) (*cacheEntry, error) {
	if hook := s.searchHook; hook != nil {
		hook()
	}
	s.met.FullSearch.Add(1)
	opt, err := core.NewOptimizer(cat, q, core.Config{
		Machine:  s.mcfg,
		CoverCap: s.cfg.CoverCap,
		Placed:   placed,
	})
	if err != nil {
		return nil, badRequestError{err}
	}
	cover, err := opt.CoverSet()
	if err != nil {
		return nil, err
	}
	st := cover.Stats
	graftSearch(sp, st)
	sp.SetAttr("source", source)
	sp.SetAttr("relations", len(q.Relations))
	sp.SetAttr("frontier", cover.Size)
	sp.SetAttr("peakBytesRetained", st.Profile().PeakBytesRetained)
	s.met.Pruned.Add("dominance", st.PrunedDominance)
	s.met.Pruned.Add("work", st.PrunedWork)
	s.met.Pruned.Add("memory", st.PrunedMemory)
	s.met.Pruned.Add("beam", st.PrunedBeam)
	for _, l := range st.Layers {
		s.met.SearchLayerSeconds.Observe(float64(l.WallNanos) / 1e9)
	}
	s.notePlan(sp, source, fp, version, search.FilterFrontier(cover.Frontier, nil, 0, 0, nil))
	return &cacheEntry{opt: opt, cover: cover}, nil
}

// Optimize serves one request: parse, fingerprint, cache lookup or search,
// then re-filter the cover set under the request's bound.
func (s *Service) Optimize(ctx context.Context, req OptimizeRequest) (*OptimizeResponse, error) {
	p, err := s.optimize(ctx, &req)
	if err != nil {
		return nil, err
	}
	return p.resp, nil
}

// optimize is Optimize for callers that also want the served bytes (the HTTP
// handler splices p.rend.slab into the body instead of re-encoding it).
func (s *Service) optimize(ctx context.Context, req *OptimizeRequest) (*servedPlan, error) {
	s.met.Requests.Add("optimize", 1)
	p, err := s.serve(ctx, req, "optimize")
	if err != nil {
		return nil, err
	}
	s.finish(p, nil)
	return p, nil
}

// Explain serves one request and additionally renders the chosen operator
// tree with its cost breakdown, the DP search trace (req.Trace), and the
// predicted-vs-actual accuracy report of an instrumented execution
// (req.Analyze).
func (s *Service) Explain(ctx context.Context, req OptimizeRequest) (*ExplainResponse, error) {
	s.met.Requests.Add("explain", 1)
	p, err := s.serve(ctx, &req, "explain")
	if err != nil {
		return nil, err
	}
	// Everything below reads operator trees, which the served bytes do not
	// carry: build the plan for this request.
	sp := p.root.Child("materialize")
	plan, err := p.materialize()
	sp.End()
	if err != nil {
		return nil, s.finish(p, err)
	}
	out := &ExplainResponse{
		OptimizeResponse: *p.resp,
		Text:             p.entry.opt.Explain(plan),
		Breakdown:        p.entry.opt.Mod.BreakdownTable(plan.Op),
	}
	p.resp = &out.OptimizeResponse // finish stamps the final latency here
	if req.Trace {
		cover := p.entry.cover
		out.SearchTrace = cover.Stats.TraceText(search.FilterFrontier(cover.Frontier, nil, 0, 0, nil))
		if out.Cache == "hit" || out.Deduped {
			// The search ran when the cover set was computed — for an earlier
			// request, or for the flight leader this one joined — not for this
			// request; say so in-band for text consumers too.
			out.SearchTraceCached = true
			out.SearchTrace = "replayed from cache (captured when the cover set was computed)\n" + out.SearchTrace
		}
	}
	if req.Why {
		pv := p.entry.opt.PlanProvenance(plan, req.bound())
		out.Why = pv
		out.WhyText = pv.Text()
	}
	if req.Analyze {
		if err := s.analyze(&req, p, plan, out); err != nil {
			return nil, s.finish(p, err)
		}
	}
	s.finish(p, nil)
	return out, nil
}

// servedPlan is one admitted request from serve to finish, and its own entry
// in the live registry (inflight.go): who it is, its trace and context, the
// phase it is in, its live execution progress and — once a plan is served —
// the response, the cover member it chose and that member's rendered answer.
// finish builds the request's one workload.Record from it.
type servedPlan struct {
	id    int64  // registry ID, set at admission
	kind  string // "optimize" or "explain"
	start time.Time
	req   *OptimizeRequest
	root  *obs.Span
	met   *Metrics
	// ctx is the request context with the end-to-end deadline and the
	// registry's cancel cause; analyze threads it into the engine.
	// cancelCause cancels it with a typed cause, stopTimeout releases the
	// deadline timer; the registry's finish calls both.
	ctx         context.Context
	cancelCause context.CancelCauseFunc
	stopTimeout context.CancelFunc
	// since is when the open phase began (zero when none is open), span its
	// span.
	since time.Time
	span  *obs.Span
	// fp and version are the template fingerprint and catalog version,
	// written before the search phase is entered and read by other
	// goroutines only after it.
	fp, version string

	// mu guards what /debug/queries reads while the request runs: the phase
	// last entered, the cancellation reason ("" while running) and, once
	// execution is armed, the live engine counters with the plan's predicted
	// (tf, tl) timeline to map them against.
	mu       sync.Mutex
	phase    phase
	reason   string
	stats    *engine.ExecStats
	timeline []accuracy.OpTimeline
	predRT   float64

	resp   *OptimizeResponse
	entry  *cacheEntry
	chosen *search.Candidate
	rend   *renderedPlan
	// baseline backs resp.Baseline, so the response's copy of the shared
	// rendered scalars costs no allocation of its own.
	baseline PlanSummary
	// q is the request's own query, read through query(): the cache entry's
	// optimizer holds whichever instance of the template was searched first,
	// and a search or an analyze needs this one's selection literals. On a
	// text-cache hit it starts nil and tmpl holds the template to bind.
	q, tmpl *query.Query
	// relErr/qErr hold the analyze accuracy summary (explain-analyze only) so
	// the request record carries the same drift signal the profiler saw.
	relErr float64
	qErr   float64
}

// finish is the one end of every admitted request, served or failed. It
// closes the open phase, retires the live-registry entry (counting a
// cancellation on its per-reason metric), closes the root span, and builds
// the request's single workload.Record — who it was and how far it got, the
// plan it was served, how it ended — which then feeds the workload profiler,
// the query log and the structured request log line alike. Deadline expiry
// counts as a cancellation even though nobody called cancel. It returns err
// with a bare context cancellation replaced by its installed cause, so
// clients and logs see *why*.
func (s *Service) finish(p *servedPlan, err error) error {
	p.enter(phaseDone)
	if errors.Is(err, context.Canceled) {
		if cause := context.Cause(p.ctx); cause != nil {
			err = cause
		}
	}
	s.inflight.finish(p)
	p.mu.Lock()
	if p.reason == "" && errors.Is(err, context.DeadlineExceeded) {
		p.reason = CancelDeadline
	}
	rec := workload.Record{
		Kind:        p.kind,
		QueryID:     p.id,
		Query:       p.req.Query,
		Fingerprint: p.fp,
		Catalog:     p.version,
		Phase:       phases[p.phase].live,
		Cancelled:   p.reason,
	}
	p.mu.Unlock()
	s.met.QueryCancelled.Add(rec.Cancelled, 1)
	rec.Time = time.Now()
	rec.TraceID = p.root.TraceID()
	rec.K, rec.CostBenefit = p.req.K, p.req.CostBenefit
	rec.ElapsedMicros = rec.Time.Sub(p.start).Microseconds()
	if resp := p.resp; resp != nil { // a plan was served, even if analyze then failed
		rec.Cache, rec.Deduped, rec.PlanSig = resp.Cache, resp.Deduped, resp.PlanSignature
		rec.RT, rec.Work = resp.Summary.ResponseTime, resp.Summary.Work
		rec.RelErr, rec.QErr = p.relErr, p.qErr
	}
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
		rec.Error = err.Error()
		s.met.Errors.Add(1)
		p.root.Err(err)
	} else {
		p.resp.ElapsedMicros = rec.ElapsedMicros
	}
	p.root.End()
	s.prof.Observe(rec)
	s.qlog.Write(rec)
	if s.logger.Enabled(context.Background(), level) { // boxing the fields allocates; skip it for a discarding logger
		s.logger.Log(context.Background(), level, rec.Kind,
			"id", rec.TraceID, "fingerprint", rec.Fingerprint, "catalog", rec.Catalog, "cache", rec.Cache,
			"phase", rec.Phase, "cancelled", rec.Cancelled, "elapsedMicros", rec.ElapsedMicros, "error", rec.Error)
	}
	return err
}

func (s *Service) serve(ctx context.Context, req *OptimizeRequest, kind string) (*servedPlan, error) {
	start := time.Now()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	// End-to-end deadline plus a cancel cause the live registry owns: the
	// same context reaches the engine's checkpoints during analyze, so both
	// a DELETE /debug/queries/{id} and a deadline expiry preempt execution.
	// No defers — the context must outlive serve (Explain's analyze runs
	// after it returns); finish releases both cancels.
	ctx, stopTimeout := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	ctx, cancelCause := context.WithCancelCause(ctx)
	// Root span of the request; phase child spans hang off it and the
	// search span joins via the context (entryFor). Everything is nil-safe,
	// so a disabled tracer costs nothing here.
	tr, root := s.tracer.Start(kind)
	p := &servedPlan{kind: kind, start: start, req: req, root: root, met: &s.met,
		ctx: obs.ContextWithSpan(ctx, root), cancelCause: cancelCause, stopTimeout: stopTimeout}
	s.inflight.add(p)

	p.enter(phaseParse)
	r, err := s.resolve(req)
	if err != nil {
		return nil, s.finish(p, err)
	}
	p.q, p.tmpl, p.fp, p.version = r.q, r.tmpl, r.fp, r.version
	root.SetAttr("fingerprint", r.fp)
	root.SetAttr("catalog", r.version)

	p.enter(phaseSearch)
	entry, hit, deduped, err := s.entryFor(p.ctx, p, &r)
	if err != nil {
		return nil, s.finish(p, err)
	}
	if hit {
		root.SetAttr("cache", "hit")
	} else {
		root.SetAttr("cache", "miss")
	}
	if deduped {
		root.SetAttr("deduped", true)
	}

	// The answer is a pure function of which cover member the bound selects:
	// re-filter (§2 — the reason a cover, not a plan, is cached), then take that
	// member's rendered answer, derived the first time any request chooses it.
	p.enter(phaseSelect)
	bound := req.bound()
	chosen, err := entry.opt.Choose(entry.cover, bound)
	if err != nil {
		return nil, s.finish(p, err)
	}

	p.enter(phaseRender)
	rend, err := entry.rendered(chosen)
	if err != nil {
		return nil, s.finish(p, err)
	}
	p.enter(phaseDone)
	p.entry, p.chosen, p.rend, p.baseline = entry, chosen, rend, rend.baseline
	resp := &OptimizeResponse{
		Fingerprint:    r.fp,
		Catalog:        r.version,
		Cache:          "miss",
		Deduped:        deduped,
		CoverSetReused: hit,
		CoverSize:      entry.cover.Size,
		PlanSignature:  rend.sig,
		Summary:        rend.summary,
		Baseline:       &p.baseline,
		Plan:           rend.planJSON(),
		TraceID:        tr.ID(),
	}
	if hit {
		resp.Cache = "hit"
	}
	if bound != nil {
		resp.Bound = bound.Name()
	}
	s.met.Latency.Observe(time.Since(start).Seconds())
	p.resp = resp
	return p, nil
}

// query returns the request's own query, binding the text-cache template to
// the request's literals on first use.
func (p *servedPlan) query() *query.Query {
	if p.q == nil {
		p.q = parser.Bind(p.tmpl, p.req.Query)
	}
	return p.q
}

// materialize builds the full plan behind the served answer — operator tree,
// descriptors, baseline — for the paths that read more than the bytes:
// Explain's text and breakdown, provenance, analyze. /optimize never calls it.
func (p *servedPlan) materialize() (*core.Plan, error) {
	return p.entry.opt.Materialize(p.entry.cover, p.chosen)
}

// InflightQueries snapshots the live registry (the /debug/queries payload).
func (s *Service) InflightQueries() []QuerySnapshot { return s.inflight.snapshots() }

// maxDataRows bounds the synthetic rows one catalog version may make anyone
// generate: the daemon for an analyze, a worker for its placement shards.
const maxDataRows = 4 << 20

// CheckDataRows refuses a catalog whose relations hold more base rows than a
// daemon generates for an analyze or a worker for its placement shards — an
// admission guard, since generation happens inline. The daemon checks it
// before an analyze or a placement install, a worker on every placement
// snapshot it fetches.
func CheckDataRows(cat *catalog.Catalog) error {
	var rows int64
	for _, name := range cat.RelationNames() {
		// Clamping each term keeps the sum from overflowing before it is refused.
		if rows += min(cat.MustRelation(name).Card, maxDataRows+1); rows > maxDataRows {
			return fmt.Errorf("catalog has more than %d base rows", int64(maxDataRows))
		}
	}
	return nil
}

// analyzeVersions is how many catalog versions' synthetic data the daemon
// keeps, least recently analyzed out first.
const analyzeVersions = 4

// analyzeData is one catalog version's synthetic data: the database analyze
// requests execute against and, once a distributed analyze needs it, the
// coordinator-fallback placement store seeded from its tables.
type analyzeData struct {
	db     *storage.Database
	fstore *placement.Store
}

// analyzeData returns the synthetic data for a catalog version, generating
// its database on first use.
func (s *Service) analyzeData(version string, cat *catalog.Catalog) (*analyzeData, error) {
	if err := CheckDataRows(cat); err != nil {
		return nil, badRequestError{fmt.Errorf("service: analyze refused: %w", err)}
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if d, ok := s.dbs.Get(version); ok {
		return d, nil
	}
	d := &analyzeData{db: storage.NewDatabase(cat, dataSeed)}
	s.dbs.Put(version, d)
	return d, nil
}

// analyze executes the served plan with engine instrumentation, joins the
// measured descriptors against the cost model's predictions, grafts the
// per-operator timings into the request trace, and feeds the cost-model
// error histogram.
func (s *Service) analyze(req *OptimizeRequest, served *servedPlan, plan *core.Plan, out *ExplainResponse) error {
	sp := served.enter(phaseExecute)
	rep, stats, err := s.execute(req, served, plan, sp)
	sp.Err(err)
	served.enter(phaseDone)
	if err != nil {
		return err
	}
	graftAnalyze(sp, rep, stats)
	// Merge the workers' span trees into this request's trace.
	graftRemote(sp, stats)
	for _, e := range rep.Errors() {
		s.met.CostRelErr.Observe(e)
	}
	// The drift signal rides the request record: finish feeds it to the
	// profiler, whose accuracy EWMAs decide whether this template's cached
	// cover set still matches measured reality.
	served.relErr, served.qErr = rep.MeanAbsRelErr, rep.MaxQErrRows
	s.met.AnalyzeRuns.Add(1)
	out.Analyze = rep
	out.AnalyzeTable = rep.Table()
	return nil
}

// execute is analyze's execute phase: it runs the served plan against the
// catalog version's synthetic data, in-process or on the registered workers,
// with live progress armed for /debug/queries.
func (s *Service) execute(req *OptimizeRequest, served *servedPlan, plan *core.Plan, sp *obs.Span) (*accuracy.Report, *engine.ExecStats, error) {
	cat := served.entry.opt.Cat
	data, err := s.analyzeData(served.version, cat)
	if err != nil {
		return nil, nil, err
	}
	par := req.AnalyzeParallel
	if par <= 0 {
		// Every CPU of the machine the plan was annotated for: on a multi-node
		// machine that is CPUs × Nodes, the bound the annotator's degrees obey.
		par = len(served.entry.opt.M.CPUs())
	}
	sp.SetAttr("parallel", par)
	// Distributed execution: build an exchange.Cluster over the current
	// worker membership. The transport interface stays nil for the
	// in-process path (a typed-nil *Cluster would dodge the engine's
	// nil check).
	var tr exchange.Transport
	var cluster *exchange.Cluster
	if req.Distributed {
		addrs := s.WorkerAddrs()
		if len(addrs) == 0 {
			return nil, nil, badRequestError{errors.New("service: distributed analyze requested but no workers are registered")}
		}
		ccfg := exchange.ClusterConfig{
			Members: s.Members,
			Window:  s.cfg.ExchangeWindow,
			// Trace propagation: fragments carry the request's trace ID so
			// worker-side spans come home tagged with it.
			TraceID: served.root.TraceID(),
		}
		if p := s.placementFor(served.version); p.m != nil {
			// Ship leaf scans to the data: restrict ownership to live
			// members (any worker can materialize any shard, so pruning
			// just re-shards across survivors), and arm the coordinator
			// fallback so a query outlives the last owner.
			live := p.m.Prune(addrs)
			ccfg.Owners = live.OwnerMap()
			ccfg.Store = s.fallbackStore(data, cat)
			ccfg.Fn = engine.FragmentJoin
			sp.SetAttr("placement", p.fp)
		}
		cluster = exchange.NewCluster(addrs, ccfg)
		sp.SetAttr("workers", len(addrs))
		tr = cluster
	}
	// Arm live progress before execution starts: the request holds the stats
	// collector the executor will update lock-free plus the plan's predicted
	// (tf, tl) timeline, so /debug/queries can sample per-operator
	// percent-complete and a model-predicted ETA mid-run.
	stats := &engine.ExecStats{}
	timeline, predRT := accuracy.Timeline(served.entry.opt.Mod, plan.Op)
	served.mu.Lock()
	served.stats, served.timeline, served.predRT = stats, timeline, predRT
	served.mu.Unlock()
	// Cancellation is the context's: the moment it dies — client DELETE,
	// deadline, shutdown — the executor stops pulling and closes its operator
	// tree, and every distributed join under it sends its workers a cancel
	// frame, so they abandon their fragments and free staged partitions.
	ctx := served.ctx
	rep, _, err := served.entry.opt.AnalyzeLive(ctx, plan, served.query(), data.db, par, tr, stats)
	if cluster != nil {
		// Record traffic even on failure: partial transfers are exactly
		// what an operator debugging a dead worker wants to see.
		s.recordExchange(sp, cluster)
	}
	switch {
	case errors.Is(err, context.Canceled):
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
	case err == nil && cluster != nil:
		// Join the interconnect predictions against observed wire time.
		rep.AttachLinks(cluster.Links())
	}
	return rep, stats, err
}
