package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"sync"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
	"paropt/internal/placement"
	"paropt/internal/storage"
)

// Worker membership for distributed execution: paroptw processes announce
// themselves via POST /cluster/register and each distributed analyze request
// builds an exchange.Cluster over the membership of the moment. The daemon
// never dials workers outside a request, so registration is plain bookkeeping
// — a dead worker surfaces as a typed *exchange.WorkerError on the request
// that tried to use it, and the operator (or the worker's own restart)
// deregisters it. Every membership change bumps the epoch; in-flight
// fragment retries consult the live membership through it, so a mid-query
// deregistration shrinks the candidate set instead of failing the query.

// RegisterWorker adds a worker address to the cluster membership and returns
// the resulting worker count. httpURL, when non-empty, is the worker's own
// HTTP base URL (its /metrics and /healthz), which GET /cluster/metrics
// scrapes; workers predating the field register with "". Idempotent; the
// epoch advances only when the membership actually changes (steady-state
// heartbeat re-registrations are free).
func (s *Service) RegisterWorker(addr, httpURL string) (int, error) {
	if addr == "" {
		return 0, badRequestError{errors.New("service: empty worker address")}
	}
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if _, ok := s.workers[addr]; !ok {
		s.epoch++
	}
	s.workers[addr] = httpURL
	return len(s.workers), nil
}

// DeregisterWorker removes a worker address, reporting whether it was
// registered, and the remaining count.
func (s *Service) DeregisterWorker(addr string) (bool, int) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	_, ok := s.workers[addr]
	if ok {
		delete(s.workers, addr)
		s.epoch++
	}
	return ok, len(s.workers)
}

// WorkerAddrs returns the registered worker addresses, sorted.
func (s *Service) WorkerAddrs() []string {
	addrs, _ := s.Members()
	return addrs
}

// Members returns the live worker addresses (sorted) and the membership
// epoch, sampled atomically — the exchange layer's re-dispatch callback.
func (s *Service) Members() ([]string, int64) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return sortedKeys(s.workers), s.epoch
}

// Epoch returns the current cluster-membership epoch.
func (s *Service) Epoch() int64 {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return s.epoch
}

// installedPlacement is a placement map beside its fingerprint, hashed once
// at install: every request's cache key embeds it.
type installedPlacement struct {
	m  *placement.Map
	fp string
}

// PlacementFor returns the installed placement map for a catalog version,
// or nil when none is installed.
func (s *Service) PlacementFor(version string) *placement.Map {
	return s.placementFor(version).m
}

func (s *Service) placementFor(version string) installedPlacement {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return s.placements[version]
}

// InstallPlacement builds a placement map for the catalog version over the
// currently registered workers (optionally pinning partitioning columns)
// and installs it. Subsequent searches under that version are placement-
// aware and distributed analyzes ship leaf scans to the owners.
func (s *Service) InstallPlacement(version string, columns map[string]string) (*placement.Map, error) {
	p, err := s.installPlacement(version, columns)
	return p.m, err
}

func (s *Service) installPlacement(version string, columns map[string]string) (installedPlacement, error) {
	if version == "" {
		s.mu.RLock()
		version = s.defaultVersion
		s.mu.RUnlock()
	}
	s.mu.RLock()
	cat := s.catalogs[version]
	s.mu.RUnlock()
	if cat == nil {
		return installedPlacement{}, badRequestError{fmt.Errorf("service: unknown catalog version %q", version)}
	}
	// Every worker generates its shards from this catalog's cardinalities.
	if err := storage.CheckDataRows(cat); err != nil {
		return installedPlacement{}, badRequestError{fmt.Errorf("service: placement refused: %w", err)}
	}
	workers, epoch := s.Members()
	if len(workers) == 0 {
		return installedPlacement{}, badRequestError{errors.New("service: no workers registered to place data on")}
	}
	m, err := placement.Build(cat, version, workers, dataSeed, columns)
	if err != nil {
		return installedPlacement{}, badRequestError{err}
	}
	m.Epoch = epoch
	p := installedPlacement{m: m, fp: m.Fingerprint()}
	s.clusterMu.Lock()
	s.placements[version] = p
	n := len(s.placements)
	s.clusterMu.Unlock()
	s.logger.Info("placement installed", "catalog", version, "workers", len(workers),
		"fingerprint", p.fp, "placements", n)
	return p, nil
}

// placementCount is the number of installed placement maps (a gauge).
func (s *Service) placementCount() int {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return len(s.placements)
}

// placedConfig renders an installed placement map as the cost model's
// Placed map: worker i of an assignment maps to shared-nothing node i (mod
// the machine's node count). Nil for a nil map, when no placement is
// installed — searches then price every redistribution as before.
func (s *Service) placedConfig(m *placement.Map) map[string]cost.PlacedRelation {
	if m == nil {
		return nil
	}
	nodes := s.mcfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	out := make(map[string]cost.PlacedRelation, len(m.Assignments))
	for name, a := range m.Assignments {
		pr := cost.PlacedRelation{Column: a.Column}
		seen := make(map[int]bool, nodes)
		for i := range a.Workers {
			n := i % nodes
			if !seen[n] {
				seen[n] = true
				pr.Nodes = append(pr.Nodes, n)
			}
		}
		sort.Ints(pr.Nodes)
		out[name] = pr
	}
	return out
}

// fallbackStore returns a catalog version's coordinator-side placement
// store, building it on first use seeded with the analyze database's tables
// (so fallback scans slice instead of regenerating).
func (s *Service) fallbackStore(d *analyzeData, cat *catalog.Catalog) *placement.Store {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if d.fstore == nil {
		d.fstore = placement.NewStore(cat, dataSeed)
		for _, name := range cat.RelationNames() {
			if t, ok := d.db.Table(name); ok {
				d.fstore.AddTable(t)
			}
		}
	}
	return d.fstore
}

// recordExchange folds one request's cluster traffic into the daemon's
// cumulative per-link counters (exposed at /metrics) and grafts the totals
// onto the request's execute span. Each request uses a fresh Cluster, so the
// cluster's counters are exactly this request's delta.
func (s *Service) recordExchange(sp *obs.Span, c *exchange.Cluster) {
	frags := c.Fragments()
	s.met.ExchangeFragments.Add(frags)
	sp.SetAttr("fragments", frags)
	if n := c.ShippedScans(); n > 0 {
		s.met.ShippedScans.Add(n)
		sp.SetAttr("shippedScans", n)
	}
	if n := c.Retries(); n > 0 {
		s.met.ExchangeRetries.Add(n)
		sp.SetAttr("retries", n)
	}
	if n := c.Fallbacks(); n > 0 {
		sp.SetAttr("fallbacks", n)
		// The typed reason distinguishes worker death from dispatch errors
		// on both the span and the per-reason counter family.
		for reason, n := range c.FallbackReasons() {
			sp.SetAttr("fallbackReason."+reason, n)
		}
	}
	s.clusterMu.Lock()
	for reason, n := range c.FallbackReasons() {
		s.fallbackReasons[reason] += n
	}
	for _, l := range c.Links() {
		cum, ok := s.links[l.Addr]
		if !ok {
			cum = &exchange.LinkSnapshot{Addr: l.Addr}
			s.links[l.Addr] = cum
		}
		cum.BytesSent += l.BytesSent
		cum.BytesRecv += l.BytesRecv
		cum.BatchesSent += l.BatchesSent
		cum.BatchesRecv += l.BatchesRecv
		cum.StallLeftNanos += l.StallLeftNanos
		cum.StallRightNanos += l.StallRightNanos
		cum.StallResultNanos += l.StallResultNanos
		cum.SendNanos += l.SendNanos
		sp.SetAttr("link."+l.Addr+".sent", l.BytesSent)
		sp.SetAttr("link."+l.Addr+".recv", l.BytesRecv)
		sp.SetAttr("link."+l.Addr+".stallMicros", (l.StallLeftNanos+l.StallRightNanos+l.StallResultNanos)/1e3)
	}
	s.clusterMu.Unlock()
}

// Worker federation: GET /cluster/metrics scrapes every registered worker's
// own /healthz and returns one snapshot of the fleet. The scrape is also the
// daemon's liveness probe — its outcome feeds the per-worker
// worker_up gauge on /metrics.

// scrapeTimeout bounds one worker health probe; a worker that cannot answer
// within it is reported down rather than stalling the federated response.
const scrapeTimeout = 2 * time.Second

// WorkerStatus is one worker's row in the federated snapshot. Health is the
// worker's own /healthz document, passed through verbatim; Error explains a
// failed scrape.
type WorkerStatus struct {
	Addr   string          `json:"addr"`
	HTTP   string          `json:"http,omitempty"`
	Up     bool            `json:"up"`
	Health json.RawMessage `json:"health,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// ClusterMetrics is the federated fleet snapshot returned by
// GET /cluster/metrics.
type ClusterMetrics struct {
	Workers []WorkerStatus          `json:"workers"`
	Live    int                     `json:"live"`
	Total   int                     `json:"total"`
	Epoch   int64                   `json:"epoch"`
	Links   []exchange.LinkSnapshot `json:"links,omitempty"`
}

// scrapeWorkers probes every registered worker's /healthz in parallel and
// records the liveness outcome for the /metrics worker_up gauges. Workers
// that registered without an HTTP URL (pre-observability paroptw builds)
// cannot be probed and are reported down with an explanatory error.
func (s *Service) scrapeWorkers(ctx context.Context) ClusterMetrics {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	s.clusterMu.Lock()
	targets := maps.Clone(s.workers) // exchange addr → HTTP base URL ("" when unknown)
	s.clusterMu.Unlock()
	addrs := sortedKeys(targets)
	out := ClusterMetrics{
		Workers: make([]WorkerStatus, len(addrs)),
		Total:   len(addrs),
		Epoch:   s.Epoch(),
		Links:   s.linkSnapshots(),
	}
	var wg sync.WaitGroup
	for i, addr := range addrs {
		ws := &out.Workers[i]
		ws.Addr, ws.HTTP = addr, targets[addr]
		if ws.HTTP == "" {
			ws.Error = "worker registered without an http endpoint"
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.HTTP+"/healthz", nil)
			if err != nil {
				ws.Error = err.Error()
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				ws.Error = err.Error()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, placement.MaxBodyBytes))
			if err != nil {
				ws.Error = err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK {
				ws.Error = fmt.Sprintf("healthz returned %d", resp.StatusCode)
				return
			}
			if json.Valid(body) {
				ws.Health = json.RawMessage(body)
			}
			ws.Up = true
		}()
	}
	wg.Wait()
	s.clusterMu.Lock()
	s.workerUp = make(map[string]bool, len(out.Workers))
	for _, ws := range out.Workers {
		s.workerUp[ws.Addr] = ws.Up
	}
	s.clusterMu.Unlock()
	for _, ws := range out.Workers {
		if ws.Up {
			out.Live++
		}
	}
	return out
}

// linkSnapshots copies the cumulative per-link traffic, sorted by address.
func (s *Service) linkSnapshots() []exchange.LinkSnapshot {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	out := make([]exchange.LinkSnapshot, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
