package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/placement"
)

// HTTP surface of the daemon (stdlib net/http only):
//
//	POST /optimize          OptimizeRequest JSON  → OptimizeResponse JSON
//	POST /explain           OptimizeRequest JSON  → ExplainResponse JSON
//	                        (?trace=1 adds the DP search trace — labeled
//	                         "replayed from cache" when another request's
//	                         search produced it (a hit or a deduplicated miss),
//	                         ?why=1 adds plan provenance: the chosen plan's
//	                         full cost breakdown plus rejected alternatives,
//	                         ?analyze=1 executes + reports accuracy,
//	                         ?distributed=1 executes on registered workers)
//	POST /schema            {"ddl": "..."}        → {"catalog": "<version>"}
//	POST /cluster/register   {"addr": "host:port", "http"?: "url"} → membership
//	POST /cluster/deregister {"addr": "host:port"} → worker membership
//	GET  /cluster/workers                         → registered workers + links
//	GET  /cluster/metrics                         → federated worker snapshot
//	                        (scrapes each registered worker's /healthz and
//	                         reports per-worker liveness)
//	POST /cluster/placement {"catalog"?, "columns"?} → build + install a
//	                        placement map over the registered workers
//	GET  /cluster/placement (?catalog=version)    → installed placement map
//	                        + catalog snapshot (what paroptw bootstraps from)
//	GET  /healthz                                 → liveness + uptime
//	GET  /metrics                                 → Prometheus text format
//	GET  /debug/traces                            → retained traces: each
//	                        entry's ID, fragment spans and workers
//	                        (?fingerprint=fp keeps traces of one query
//	                         template, ?min_ms=N keeps traces at least that
//	                         long, ?kind=name keeps traces holding a span of
//	                         that name — search or plan-change; combined, all
//	                         must hold)
//	GET  /debug/trace/{id}                        → one trace's span tree: a
//	                        request's phases, its search with per-layer
//	                        spans, its operators and worker fragments, and
//	                        any plan change it caused (sweeps and replays
//	                        trace the same way)
//	GET  /debug/queries                           → in-flight queries with
//	                        live per-operator progress, model-predicted ETA
//	                        and drift flags (?format=text renders a table)
//	GET  /debug/queries/{id}                      → one in-flight query
//	DELETE /debug/queries/{id}                    → cancel an in-flight query
//	                        (cooperative: engine checkpoints + cluster-wide
//	                         worker cancel frames)
//	GET  /debug/workload                          → per-fingerprint profiles
//	                        (?top=K bounds rows, ?by=traffic|latency|drift
//	                         orders them, ?format=text renders a table)
//
// Error mapping: client errors (parse/validation/unknown catalog) → 400,
// queue-full admission rejection → 429 with Retry-After, request timeout →
// 504, shutdown → 503.

// Handler returns the daemon's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", s.handleOptimize)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /schema", s.handleSchema)
	mux.HandleFunc("POST /cluster/register", s.handleClusterRegister)
	mux.HandleFunc("POST /cluster/deregister", s.handleClusterDeregister)
	mux.HandleFunc("GET /cluster/workers", s.handleClusterWorkers)
	mux.HandleFunc("GET /cluster/metrics", s.handleClusterMetrics)
	mux.HandleFunc("POST /cluster/placement", s.handleClusterPlacementInstall)
	mux.HandleFunc("GET /cluster/placement", s.handleClusterPlacement)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/queries", s.handleQueries)
	mux.HandleFunc("GET /debug/queries/{id}", s.handleQuery)
	mux.HandleFunc("DELETE /debug/queries/{id}", s.handleQueryCancel)
	mux.HandleFunc("GET /debug/workload", s.handleWorkload)
	return mux
}

// decodeJSON decodes a body holding one JSON value — nothing but whitespace
// may follow it — into dst, rejecting unknown fields; on failure it answers
// 400 itself. OptimizeRequest bodies take decodeOptimize instead.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, placement.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, end := dec.Token(); end != io.EOF {
			err = errTrailingData
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a failed write
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusClientCancelled is nginx's non-standard 499 "client closed
// request" — the closest thing HTTP has to "you asked us to stop".
const statusClientCancelled = 499

// writeServiceError maps service errors to HTTP statuses.
func writeServiceError(w http.ResponseWriter, err error) {
	var bad badRequestError
	var qc *QueryCancelledError
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &qc):
		// Client cancellations are the client's own doing; shutdown and
		// deadline cancels map like their non-cancelled analogues.
		switch qc.Reason {
		case CancelClient:
			writeError(w, statusClientCancelled, err)
		case CancelShutdown:
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusGatewayTimeout, err)
		}
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Service) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decodeOptimize(w, r, &req) {
		return
	}
	p, err := s.optimize(r.Context(), &req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeOptimize(w, p.resp, p.rend.slab)
}

// writeOptimize writes resp byte for byte as writeJSON would, without
// encoding it: the per-request fields before and after the plan-dependent
// middle are appended by hand into one small buffer, and the middle — slab,
// most of the body, already laid out as the encoder would lay it out — goes
// to the connection by reference. The layout below is OptimizeResponse's
// field order and tags; TestOptimizeBytesMatchEncoder holds the two together.
func writeOptimize(w http.ResponseWriter, resp *OptimizeResponse, slab []byte) {
	b := make([]byte, 0, 512)
	b = append(b, "{\n  \"fingerprint\": "...)
	b = appendJSONString(b, resp.Fingerprint)
	b = append(b, ",\n  \"catalog\": "...)
	b = appendJSONString(b, resp.Catalog)
	b = append(b, ",\n  \"cache\": "...)
	b = appendJSONString(b, resp.Cache)
	if resp.Deduped {
		b = append(b, ",\n  \"deduped\": true"...)
	}
	b = append(b, ",\n  \"coverSize\": "...)
	b = strconv.AppendInt(b, int64(resp.CoverSize), 10)
	if resp.Bound != "" {
		b = append(b, ",\n  \"bound\": "...)
		b = appendJSONString(b, resp.Bound)
	}
	b = append(b, ",\n"...)
	head := len(b)
	b = append(b, ",\n  \"elapsedMicros\": "...)
	b = strconv.AppendInt(b, resp.ElapsedMicros, 10)
	if resp.TraceID != "" {
		b = append(b, ",\n  \"traceId\": "...)
		b = appendJSONString(b, resp.TraceID)
	}
	b = append(b, "\n}\n"...)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)+len(slab)))
	w.WriteHeader(http.StatusOK)
	w.Write(b[:head]) //nolint:errcheck // nothing to do about a failed write
	w.Write(slab)     //nolint:errcheck
	w.Write(b[head:]) //nolint:errcheck
}

// appendJSONString appends s as encoding/json would encode it. Strings of
// plain ASCII with nothing the encoder escapes (quotes, backslashes, control
// bytes, and <, >, & under its default HTML escaping) are their own encoding;
// anything else goes through the encoder itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decodeOptimize(w, r, &req) {
		return
	}
	// URL query flags are the curl-friendly spelling of the body fields.
	q := r.URL.Query()
	if q.Get("trace") == "1" {
		req.Trace = true
	}
	if q.Get("analyze") == "1" {
		req.Analyze = true
	}
	if q.Get("distributed") == "1" {
		req.Distributed = true
	}
	if q.Get("why") == "1" {
		req.Why = true
	}
	resp, err := s.Explain(r.Context(), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// SchemaRequest registers a catalog from DDL text. Default additionally
// makes it the service's default catalog (the statistics-refresh path: the
// plan cache misses naturally under the new version, and before the reply
// the refresh's drift sweep re-optimizes drifted hot templates against it).
type SchemaRequest struct {
	DDL     string `json:"ddl"`
	Default bool   `json:"default,omitempty"`
}

// SchemaResponse returns the registered catalog version.
type SchemaResponse struct {
	Catalog   string `json:"catalog"`
	Relations int    `json:"relations"`
}

func (s *Service) handleSchema(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Add("schema", 1)
	var req SchemaRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	cat, err := parser.ParseSchema(req.DDL)
	if err != nil {
		s.met.Errors.Add(1)
		writeServiceError(w, badRequestError{err})
		return
	}
	var version string
	if req.Default {
		// The statistics-refresh path: move the default and retire the
		// previous default version (catalog-version GC).
		version = s.RefreshCatalog(cat)
	} else {
		version = s.RegisterCatalog(cat)
	}
	writeJSON(w, http.StatusOK, SchemaResponse{Catalog: version, Relations: cat.NumRelations()})
}

// ClusterRequest is the register/deregister body, which the worker takes from
// placement; the alias keeps the name for clients that post it.
type ClusterRequest = placement.Register

// ClusterResponse reports the membership after a register/deregister.
type ClusterResponse struct {
	Workers []string `json:"workers"`
}

func (s *Service) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, err := s.RegisterWorker(req.Addr, req.HTTP); err != nil {
		writeServiceError(w, err)
		return
	}
	s.logger.Info("worker registered", "addr", req.Addr)
	writeJSON(w, http.StatusOK, ClusterResponse{Workers: s.WorkerAddrs()})
}

func (s *Service) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if ok, _ := s.DeregisterWorker(req.Addr); ok {
		s.logger.Info("worker deregistered", "addr", req.Addr)
	}
	writeJSON(w, http.StatusOK, ClusterResponse{Workers: s.WorkerAddrs()})
}

func (s *Service) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	workers, epoch := s.Members()
	if workers == nil {
		workers = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":   workers,
		"epoch":     epoch,
		"fragments": s.met.ExchangeFragments.Load(),
		"links":     s.linkSnapshots(),
	})
}

func (s *Service) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.scrapeWorkers(r.Context()))
}

// PlacementRequest installs a placement map: Catalog optionally names a
// registered version (default: the service default), Columns optionally
// pins relation → partitioning column (unpinned relations get the
// co-location heuristic).
type PlacementRequest struct {
	Catalog string            `json:"catalog,omitempty"`
	Columns map[string]string `json:"columns,omitempty"`
}

func (s *Service) handleClusterPlacementInstall(w http.ResponseWriter, r *http.Request) {
	var req PlacementRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p, err := s.installPlacement(req.Catalog, req.Columns)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	s.writePlacement(w, p.m.CatalogVersion, p)
}

func (s *Service) handleClusterPlacement(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("catalog")
	if version == "" {
		s.mu.RLock()
		version = s.defaultVersion
		s.mu.RUnlock()
	}
	p := s.placementFor(version)
	if p.m == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no placement installed for catalog %q", version))
		return
	}
	s.writePlacement(w, version, p)
}

// writePlacement answers both placement routes: the installed map beside the
// catalog snapshot a worker rebuilds its store from.
func (s *Service) writePlacement(w http.ResponseWriter, version string, p installedPlacement) {
	s.mu.RLock()
	cat := s.catalogs[version]
	s.mu.RUnlock()
	if cat == nil { // retired between the placement lookup and here
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown catalog version %q", version))
		return
	}
	writeJSON(w, http.StatusOK, placement.Document{
		Map: p.m, Fingerprint: p.fp, Epoch: s.Epoch(), Snapshot: cat.Snapshot(),
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	catalogs := len(s.catalogs)
	closed := s.closed
	s.mu.RUnlock()
	status := "ok"
	code := http.StatusOK
	if closed {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
		"catalogs":      catalogs,
		"cacheEntries":  s.cache.Len(),
		"queueDepth":    s.pool.QueueDepth(),
	})
}

// handleMetrics renders into memory first: some families sample under
// clusterMu, which must not be held across a write to a slow scraper.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	obs.WriteFamilies(&buf, s.families())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes()) //nolint:errcheck // nothing to do about a failed write
}

// TraceEntry summarizes one retained trace for the ring listing: how many
// worker fragment spans it holds and how many distinct workers ran them, so
// distributed queries stand out without fetching each full tree.
type TraceEntry struct {
	ID        string `json:"id"`
	Fragments int    `json:"fragments"`
	Workers   int    `json:"workers"`
}

func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wantFP, wantKind := q.Get("fingerprint"), q.Get("kind")
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	traces := s.tracer.Traces()
	entries := make([]TraceEntry, 0, len(traces))
	for _, tr := range traces {
		if minDur > 0 && tr.Root().Duration() < minDur {
			continue
		}
		e := TraceEntry{ID: tr.ID()}
		workers := map[string]bool{}
		fpMatch, kindMatch := wantFP == "", wantKind == ""
		tr.Walk(func(name string, attrs []obs.Attr) {
			kindMatch = kindMatch || name == wantKind
			for _, a := range attrs {
				if a.Key == "fingerprint" && a.Value == wantFP {
					fpMatch = true
				}
				if name == "fragment" && a.Key == "worker" {
					workers[a.Value] = true
				}
			}
			if name == "fragment" {
				e.Fragments++
			}
		})
		if !fpMatch || !kindMatch {
			continue
		}
		e.Workers = len(workers)
		entries = append(entries, e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": entries})
}

// handleQueries lists the in-flight queries with live progress: per-operator
// percent complete against predicted cardinalities, a model-predicted ETA
// from the plan's (tf, tl) descriptors, and the drift flag.
func (s *Service) handleQueries(w http.ResponseWriter, r *http.Request) {
	snaps := s.InflightQueries()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeQueriesText(w, snaps)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": snaps})
}

// writeQueriesText renders the in-flight listing as a fixed-width table (the
// ?format=text form, which `paropt top` prints verbatim): one summary row per
// query plus an indented per-operator progress row for executing ones.
func writeQueriesText(w io.Writer, snaps []QuerySnapshot) {
	fmt.Fprintf(w, "%d in-flight\n", len(snaps))
	fmt.Fprintf(w, "%4s %-9s %-9s %10s %6s %12s %-6s %s\n",
		"id", "kind", "phase", "elapsed", "pct", "eta", "drift", "query")
	for _, qs := range snaps {
		pct, eta, drift := "-", "-", ""
		if p := qs.Progress; p != nil {
			pct = fmt.Sprintf("%.0f%%", p.Percent*100)
			if p.ETAMs >= 0 {
				eta = fmt.Sprintf("%.0fms", p.ETAMs)
			}
			if p.Drift {
				drift = "DRIFT"
			}
		}
		kind := qs.Kind
		if qs.Distributed {
			kind += "*"
		}
		fmt.Fprintf(w, "%4d %-9s %-9s %9.0fms %6s %12s %-6s %s\n",
			qs.ID, kind, qs.Phase, qs.ElapsedMs, pct, eta, drift, workload.Elide(qs.Query, 60))
		if qs.Progress != nil {
			for _, op := range qs.Progress.Ops {
				done := ""
				if op.Done {
					done = " done"
				}
				fmt.Fprintf(w, "     · %-24s %d/%d rows (%.0f%%)%s\n",
					op.Label, op.Rows, op.PredRows, op.Percent*100, done)
			}
		}
	}
}

// liveQuery is the in-flight request the {id} path segment names; nil after
// answering a 400 on garbage or a 404 when no such request is in flight.
func (s *Service) liveQuery(w http.ResponseWriter, r *http.Request) *servedPlan {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query id %q", r.PathValue("id")))
		return nil
	}
	p := s.inflight.get(id)
	if p == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no in-flight query %d", id))
	}
	return p
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if p := s.liveQuery(w, r); p != nil {
		writeJSON(w, http.StatusOK, p.snapshot(time.Now()))
	}
}

// handleQueryCancel cancels one live request with reason "client".
func (s *Service) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	p := s.liveQuery(w, r)
	if p == nil {
		return
	}
	p.cancel(CancelClient)
	s.logger.Info("query cancelled by client", "queryId", p.id)
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": p.id})
}

// handleWorkload serves the live per-fingerprint workload report: top-K
// profiles by traffic, latency or drift, as JSON or a fixed-width table.
func (s *Service) handleWorkload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	top := 20
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", v))
			return
		}
		top = n
	}
	by := q.Get("by")
	switch by {
	case "", "traffic", "latency", "drift":
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad by %q (want traffic, latency or drift)", by))
		return
	}
	snaps := s.prof.Snapshot()
	workload.SortBy(snaps, by)
	if len(snaps) > top {
		snaps = snaps[:top]
	}
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "workload: %d fingerprints, %d drifted, %d overflow\n\n",
			s.prof.Len(), s.prof.DriftedCount(), s.prof.Overflow())
		io.WriteString(w, workload.FormatTable(snaps)) //nolint:errcheck
		return
	}
	if snaps == nil {
		snaps = []workload.ProfileSnapshot{}
	}
	records, dropped, rotations := s.qlog.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprints": s.prof.Len(),
		"drifted":      s.prof.DriftedCount(),
		"overflow":     s.prof.Overflow(),
		"queryLog": map[string]any{
			"path":      s.qlog.Path(),
			"records":   records,
			"dropped":   dropped,
			"rotations": rotations,
		},
		"profiles": snaps,
	})
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.tracer.Get(id)
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, tr.JSON())
}
