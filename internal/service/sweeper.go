package service

import (
	"context"
	"errors"

	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/query"
)

// Drift sweep: the feedback loop from measured accuracy back into the plan
// cache. Explain-analyze runs feed each fingerprint's EWMA row q-error (their
// request record carries it into Profiler.Observe); when a template's EWMA
// crosses the drift threshold its cached cover set was computed from
// statistics that no longer match measured reality. A search is a pure
// function of the query, the catalog, the placement and the session options,
// so re-running it against the same catalog re-derives the cover it would
// replace: only a statistics refresh can change a drifted template's plan.
// RefreshCatalog therefore runs the sweep itself, once the default version
// has moved, so hot drifted templates get warm entries under the new version
// before their next request pays a search. Without a refresh a drift mark
// stays set.
//
// Each sweep of a template opens its own "sweep" trace, so the search it runs
// and any plan swap it causes carry a trace ID like a request's.
//
// A sweep enters the search through searchFor, the door request misses use:
// it shares a flight with a concurrent miss of the same key (one search, not
// two) and runs on the worker pool, so -workers/-queue bound sweeps too. A
// sweep that finds the queue full skips the template rather than waiting —
// requests own the admission slots — and its next request searches, as
// after any refresh.

// sweepLimit bounds how many drifted templates one refresh re-searches.
const sweepLimit = 4

// resweep re-optimizes up to sweepLimit drifted templates, hottest first,
// against the current default catalog, clearing the drift mark of each one it
// tries: the entry its mark measured belonged to the retired version.
func (s *Service) resweep() {
	for i, d := range s.prof.Drifted() {
		if i >= sweepLimit {
			break
		}
		s.sweepOne(d)
		s.prof.MarkSwept(d.Fingerprint)
	}
}

// sweepOne re-optimizes one drifted template against the current default
// catalog, counting it when its own search installed a fresh cover set.
func (s *Service) sweepOne(d workload.ProfileSnapshot) {
	s.mu.RLock()
	version := s.defaultVersion
	cat := s.catalogs[version]
	closed := s.closed
	s.mu.RUnlock()
	if closed || cat == nil || d.Query == "" {
		return
	}
	q, err := parser.ParseQuery(d.Query, cat)
	if err != nil {
		s.logger.Warn("sweep: template no longer parses", "fingerprint", d.Fingerprint, "err", err)
		return
	}
	fp := query.Fingerprint(q)
	_, root := s.tracer.Start("sweep")
	root.SetAttr("fingerprint", fp)
	root.SetAttr("catalog", version)
	ctx := obs.ContextWithSpan(context.Background(), root)
	entry, shared, err := s.searchFor(ctx, s.cacheKey(fp, version), fp, version, cat, q, "sweeper")
	root.Err(err)
	root.End()
	switch {
	case errors.Is(err, ErrOverloaded):
		s.logger.Info("sweep: pool full, template left to its next request", "fingerprint", fp)
		return
	case err != nil:
		s.logger.Warn("sweep: search failed", "fingerprint", fp, "err", err)
		return
	case shared: // a request's miss searched this key just now; nothing to replace
		return
	}
	s.met.SweepReoptimized.Add(1)
	s.logger.Info("sweep: re-optimized", "fingerprint", fp, "catalog", version,
		"frontier", entry.cover.Size)
}
