package service

import (
	"context"
	"errors"
	"time"

	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/query"
)

// Background drift sweeper: the feedback loop from measured accuracy back
// into the plan cache. Explain-analyze runs feed each fingerprint's EWMA row
// q-error (their request record carries it into Profiler.Observe); when a
// template's EWMA crosses the drift threshold its cached cover set was
// computed from statistics that no longer match measured reality. The
// sweeper re-runs the DP search for the hottest drifted templates against the
// *current default catalog* — so after an operator refreshes statistics
// (RefreshCatalog), hot templates get warm entries under the new version
// before the next request pays a search.
//
// Each sweep of a template opens its own "sweep" trace, so the search it runs
// and any plan swap it causes carry a trace ID like a request's.
//
// A sweep enters the search through searchFor, the door request misses use:
// it shares a flight with a concurrent miss of the same key (one search, not
// two) and runs on the worker pool, so -workers/-queue bound sweeps too. A
// sweep that finds the queue full leaves the template drifted for the next
// tick rather than waiting — requests own the admission slots.

// sweepLimit bounds how many searches one sweeper pass may run.
const sweepLimit = 4

// sweeperLoop ticks until Close.
func (s *Service) sweeperLoop(interval time.Duration) {
	defer s.sweepWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.SweepNow()
		}
	}
}

// SweepNow runs one sweeper pass immediately (also the loop body): it
// re-optimizes up to sweepLimit drifted templates, hottest first, and
// returns how many cache entries it replaced. Exported so tests and
// operators can force a pass without waiting for the ticker.
func (s *Service) SweepNow() int {
	s.met.SweepRuns.Add(1)
	n := 0
	for _, d := range s.prof.Drifted() {
		if n >= sweepLimit {
			break
		}
		if s.sweepOne(d) {
			n++
		}
	}
	return n
}

// sweepOne re-optimizes one drifted template against the current default
// catalog. Unless the pool was full, the profile's drift mark is cleared
// whatever the outcome: a successful sweep installed a fresh cover set whose
// accuracy must be re-measured, and a template that no longer parses
// (relation dropped) must not be retried forever.
func (s *Service) sweepOne(d workload.ProfileSnapshot) bool {
	s.mu.RLock()
	version := s.defaultVersion
	cat := s.catalogs[version]
	closed := s.closed
	s.mu.RUnlock()
	if closed || cat == nil || d.Query == "" {
		return false
	}
	q, err := parser.ParseQuery(d.Query, cat)
	if err != nil {
		s.prof.MarkSwept(d.Fingerprint)
		s.logger.Warn("sweep: template no longer parses", "fingerprint", d.Fingerprint, "err", err)
		return false
	}
	fp := query.Fingerprint(q)
	_, root := s.tracer.Start("sweep")
	root.SetAttr("fingerprint", fp)
	root.SetAttr("catalog", version)
	ctx := obs.ContextWithSpan(context.Background(), root)
	entry, shared, err := s.searchFor(ctx, s.cacheKey(fp, version), fp, version, cat, q, "sweeper")
	root.Err(err)
	root.End()
	if errors.Is(err, ErrOverloaded) {
		return false
	}
	s.prof.MarkSwept(d.Fingerprint)
	if err != nil {
		s.logger.Warn("sweep: search failed", "fingerprint", fp, "err", err)
		return false
	}
	if shared { // a request's miss searched this key just now; nothing to replace
		return false
	}
	s.met.SweepReoptimized.Add(1)
	s.logger.Info("sweep: re-optimized", "fingerprint", fp, "catalog", version,
		"frontier", entry.cover.Size)
	return true
}
