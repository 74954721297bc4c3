package service

import (
	"time"

	"paropt/internal/obs/workload"
	"paropt/internal/parser"
	"paropt/internal/query"
)

// Background drift sweeper: the feedback loop from measured accuracy back
// into the plan cache. Explain-analyze runs feed each fingerprint's EWMA row
// q-error (profiler.ObserveAccuracy); when a template's EWMA crosses the
// drift threshold its cached cover set was computed from statistics that no
// longer match measured reality. The sweeper re-runs the DP search for the
// hottest drifted templates against the *current default catalog* — so after
// an operator refreshes statistics (RefreshCatalog), hot templates get warm
// entries under the new version before the next request pays a search.
//
// Sweeps run on the sweeper goroutine, not through the worker pool: they are
// background work that must not consume the pool's admission slots.

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
	if s.prof == nil {
		return 0
	}
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
// catalog. Whatever the outcome, the profile's drift mark is cleared: a
// successful sweep installed a fresh cover set whose accuracy must be
// re-measured, and a template that no longer parses (relation dropped)
// must not be retried forever.
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
	entry, err := s.runSearch(cat, q, fp, s.placedConfig(version), nil, "sweeper", version)
	s.prof.MarkSwept(d.Fingerprint)
	if err != nil {
		s.logger.Warn("sweep: search failed", "fingerprint", fp, "err", err)
		return false
	}
	s.cache.Put(s.cacheKey(fp, version), entry)
	s.met.SweepReoptimized.Add(1)
	s.logger.Info("sweep: re-optimized", "fingerprint", fp, "catalog", version,
		"frontier", len(entry.cover.Frontier))
	return true
}
