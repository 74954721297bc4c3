package service

import (
	"strings"
	"time"

	"paropt/internal/obs"
	"paropt/internal/search"
)

// Plan-change audit log: every time the service's answer for a query
// fingerprint *changes* — the drift sweeper re-optimized it, a statistics
// refresh moved the catalog, or a replay regression was reported — one
// PlanChange records the before/after plan fingerprints, the cost deltas,
// and a structural diff of the join trees. The log is an obs.Ring served at
// /debug/planlog, optionally persisted through an obs.Sink
// (Config.PlanLogPath) so swaps survive a restart for post-hoc audits.

// PlanChange is one recorded plan swap.
type PlanChange struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`
	// TraceID is the trace of the request whose search produced the swap
	// (empty for sweeper and replay entries and when tracing is off).
	TraceID string `json:"traceId,omitempty"`
	// Source attributes the swap: "search" (a later request's search chose
	// differently under unchanged inputs — should not happen for a fixed
	// catalog), "refresh" (catalog version moved under the template),
	// "sweeper" (drift re-optimization), "replay" (a replay run reported a
	// regression against a recorded log).
	Source      string `json:"source"`
	Fingerprint string `json:"fingerprint"`
	// PrevCatalog/Catalog are the catalog versions before and after.
	PrevCatalog string `json:"prevCatalog,omitempty"`
	Catalog     string `json:"catalog"`
	// PrevPlan/NewPlan are the plan signatures (join trees in functional
	// notation).
	PrevPlan string `json:"prevPlan"`
	NewPlan  string `json:"newPlan"`
	// Cost deltas: estimated response time and work before and after.
	PrevRT   float64 `json:"prevRT"`
	NewRT    float64 `json:"newRT"`
	PrevWork float64 `json:"prevWork"`
	NewWork  float64 `json:"newWork"`
	// Diff is the structural plan diff: tree-rendering lines only in the
	// previous plan ("- ") or only in the new one ("+ ").
	Diff []string `json:"diff,omitempty"`
}

// planLogCapacity is how many recent plan changes /debug/planlog retains.
const planLogCapacity = 256

func newPlanLog() *obs.Ring[PlanChange] {
	return obs.NewRing(planLogCapacity, func(c *PlanChange, seq uint64) { c.ID = int64(seq) })
}

// recordPlanChange stamps one change into the ring (and the JSONL audit
// file, when configured), counts it by source, and returns its ID.
func (s *Service) recordPlanChange(c PlanChange) int64 {
	c.Time = time.Now()
	c.ID = int64(s.planlog.Add(c))
	s.planfile.Write(c)
	s.met.PlanChanges.Add(c.Source, 1)
	return c.ID
}

// PlanChanges returns the retained audit-log entries, newest first.
func (s *Service) PlanChanges() []PlanChange { return s.planlog.Snapshot(0) }

// prevPlan is the last answer remembered per query fingerprint — the "before"
// side of the next swap.
type prevPlan struct {
	catalog string
	sig     string
	rt      float64
	work    float64
	lines   []string
}

// lastPlansCap bounds the per-fingerprint memory; beyond it an arbitrary
// entry is dropped (the map is advisory — a dropped fingerprint just misses
// one swap's "before" side).
const lastPlansCap = 4096

// notePlan observes the representative plan a fresh search produced for a
// fingerprint and records a PlanChange when it differs from the last one. The
// representative is the frontier's unbounded best (minimum response time):
// the answer an unbounded request would get, which makes swap detection
// independent of per-request bound knobs. A swap seen under a new catalog
// version is reclassified from "search" to "refresh".
func (s *Service) notePlan(source, traceID, fp, version string, best *search.Candidate) {
	if best == nil {
		return
	}
	sig := best.Node.String()
	lines := treeLines(best.Node.Indent())
	next := prevPlan{catalog: version, sig: sig, rt: best.RT(), work: best.Work(), lines: lines}

	s.planMu.Lock()
	prev, seen := s.lastPlans[fp]
	if !seen && len(s.lastPlans) >= lastPlansCap {
		for k := range s.lastPlans {
			delete(s.lastPlans, k)
			break
		}
	}
	s.lastPlans[fp] = next
	s.planMu.Unlock()

	if !seen || (prev.sig == sig && prev.catalog == version && prev.rt == next.rt && prev.work == next.work) {
		return
	}
	if source == "search" && prev.catalog != version {
		source = "refresh"
	}
	id := s.recordPlanChange(PlanChange{
		TraceID:     traceID,
		Source:      source,
		Fingerprint: fp,
		PrevCatalog: prev.catalog,
		Catalog:     version,
		PrevPlan:    prev.sig,
		NewPlan:     sig,
		PrevRT:      prev.rt,
		NewRT:       next.rt,
		PrevWork:    prev.work,
		NewWork:     next.work,
		Diff:        diffLines(prev.lines, lines),
	})
	s.logger.Info("plan change",
		"source", source, "fingerprint", fp,
		"prevRT", prev.rt, "newRT", next.rt,
		"prevWork", prev.work, "newWork", next.work,
		"id", id)
}

// RecordReplayChange feeds one replay-detected regression into the audit log:
// a replayed request whose plan signature no longer matches the recorded one.
// Exported for the replay CLI's in-process mode.
func (s *Service) RecordReplayChange(fingerprint, catalog, recordedPlan, replayedPlan string, recordedRT, replayedRT float64) {
	s.recordPlanChange(PlanChange{
		Source:      "replay",
		Fingerprint: fingerprint,
		Catalog:     catalog,
		PrevPlan:    recordedPlan,
		NewPlan:     replayedPlan,
		PrevRT:      recordedRT,
		NewRT:       replayedRT,
		Diff:        diffLines([]string{recordedPlan}, []string{replayedPlan}),
	})
}

// treeLines splits an indented tree rendering into diffable lines.
func treeLines(indent string) []string {
	return strings.Split(strings.TrimRight(indent, "\n"), "\n")
}

// diffLines is a deterministic multiset line diff: lines of prev not in next
// come out "- ", lines of next not in prev "+ ", each side in original order.
func diffLines(prev, next []string) []string {
	prevCount := make(map[string]int, len(prev))
	for _, l := range prev {
		prevCount[l]++
	}
	nextCount := make(map[string]int, len(next))
	for _, l := range next {
		nextCount[l]++
	}
	var out []string
	for _, l := range prev {
		if nextCount[l] > 0 {
			nextCount[l]--
		} else {
			out = append(out, "- "+l)
		}
	}
	for _, l := range next {
		if prevCount[l] > 0 {
			prevCount[l]--
		} else {
			out = append(out, "+ "+l)
		}
	}
	return out
}
