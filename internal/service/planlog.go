package service

import (
	"strings"
	"time"

	"paropt/internal/obs"
	"paropt/internal/search"
)

// Plan-change audit log: every time the service's answer for a query
// fingerprint *changes* — a refresh's drift sweep re-optimized it, a statistics
// refresh moved the catalog, or a replay regression was reported — one
// plan-change span records the before/after plan fingerprints, the cost
// deltas, and a structural diff of the join trees under the trace that caused
// it. The tracer pins that trace (obs.Tracer.Keep), so /debug/traces
// ?kind=plan-change lists recent swaps however much traffic followed them; the
// same record goes to the optional JSONL sink (Config.PlanLogPath) as a
// PlanChange, stamped with the trace ID, so swaps survive a restart for
// post-hoc audits.

// PlanChange is one recorded plan swap as the JSONL sink writes it.
type PlanChange struct {
	Time time.Time `json:"time"`
	// TraceID is the trace holding the swap's plan-change span: the request
	// whose search produced it, or the sweep or replay trace (empty when
	// tracing is off).
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

// recordPlanChange records one swap as a plan-change child of parent, pins
// parent's trace, appends the change to the JSONL audit file (when
// configured) and counts it by source. The span's attributes are the
// PlanChange fields under their JSON names, the diff lines joined by
// newlines.
func (s *Service) recordPlanChange(parent *obs.Span, c PlanChange) {
	c.Time = time.Now()
	c.TraceID = parent.TraceID()
	sp := parent.Child("plan-change")
	sp.SetAttr("source", c.Source)
	sp.SetAttr("fingerprint", c.Fingerprint)
	sp.SetAttr("prevCatalog", c.PrevCatalog)
	sp.SetAttr("catalog", c.Catalog)
	sp.SetAttr("prevPlan", c.PrevPlan)
	sp.SetAttr("newPlan", c.NewPlan)
	sp.SetAttr("prevRT", c.PrevRT)
	sp.SetAttr("newRT", c.NewRT)
	sp.SetAttr("prevWork", c.PrevWork)
	sp.SetAttr("newWork", c.NewWork)
	sp.SetAttr("diff", strings.Join(c.Diff, "\n"))
	sp.End()
	s.tracer.Keep(sp)
	s.planfile.Write(c)
	s.met.PlanChanges.Add(c.Source, 1)
	s.logger.Info("plan change",
		"source", c.Source, "fingerprint", c.Fingerprint,
		"prevRT", c.PrevRT, "newRT", c.NewRT,
		"prevWork", c.PrevWork, "newWork", c.NewWork,
		"traceId", c.TraceID)
}

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
// fingerprint and records a plan change under the search span sp when it
// differs from the last one. The representative is the frontier's unbounded
// best (minimum response time): the answer an unbounded request would get,
// which makes swap detection independent of per-request bound knobs. A swap seen under a new catalog
// version is reclassified from "search" to "refresh".
func (s *Service) notePlan(sp *obs.Span, source, fp, version string, best *search.Candidate) {
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
	s.recordPlanChange(sp, PlanChange{
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
}

// RecordReplayChange feeds one replay-detected regression into the audit log,
// under a replay trace of its own: a replayed request whose plan signature no
// longer matches the recorded one. Exported for the replay CLI's in-process
// mode.
func (s *Service) RecordReplayChange(fingerprint, catalog, recordedPlan, replayedPlan string, recordedRT, replayedRT float64) {
	_, root := s.tracer.Start("replay")
	defer root.End()
	s.recordPlanChange(root, PlanChange{
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
