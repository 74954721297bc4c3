package service

import (
	"strings"

	"paropt/internal/obs"
	"paropt/internal/obs/workload"
	"paropt/internal/search"
)

// Plan-change record: every time the service's answer for a query
// fingerprint *changes* — a statistics refresh moved the catalog, a placement
// install moved the data, or a refresh's drift sweep re-optimized it — one
// plan-change span records the before/after plan fingerprints, the cost
// deltas, and a structural diff of the join trees under the trace that caused
// it. The tracer pins that trace (obs.Tracer.Keep), so /debug/traces
// ?kind=plan-change lists recent swaps however much traffic followed them;
// the request log's "plan change" line carries every field but the diff, so
// a -log json stream outlives a restart. The "before" side is the plan the
// template's workload profile holds from its last search.

// notePlan observes the representative plan a fresh search produced for a
// fingerprint under catalog version and placement fingerprint placement, and
// records a plan change under the search span sp when it differs from the
// last one. The representative is the frontier's unbounded best (minimum
// response time): the answer an unbounded request would get, which makes
// swap detection independent of per-request bound knobs. A swap is labelled
// by the input that moved: "sweeper" for a drift sweep's search, else
// "refresh" when the catalog version moved, "placement" when only the
// placement did, and "search" when the inputs are identical — which a
// deterministic search never does.
func (s *Service) notePlan(sp *obs.Span, source, fp, version, placement string, best *search.Candidate) {
	if best == nil {
		return
	}
	next := workload.SearchedPlan{
		Catalog: version, Placement: placement, Sig: best.Node.String(),
		RT: best.RT(), Work: best.Work(), Lines: treeLines(best.Node.Indent()),
	}
	prev, seen := s.prof.SwapPlan(fp, next)
	if !seen || (prev.Sig == next.Sig && prev.Catalog == version && prev.RT == next.RT && prev.Work == next.Work) {
		return
	}
	switch {
	case source == "sweeper":
	case prev.Catalog != version:
		source = "refresh"
	case prev.Placement != placement:
		source = "placement"
	}
	ch := sp.Child("plan-change")
	ch.SetAttr("source", source)
	ch.SetAttr("fingerprint", fp)
	ch.SetAttr("prevCatalog", prev.Catalog)
	ch.SetAttr("catalog", version)
	ch.SetAttr("prevPlan", prev.Sig)
	ch.SetAttr("newPlan", next.Sig)
	ch.SetAttr("prevRT", prev.RT)
	ch.SetAttr("newRT", next.RT)
	ch.SetAttr("prevWork", prev.Work)
	ch.SetAttr("newWork", next.Work)
	ch.SetAttr("diff", strings.Join(diffLines(prev.Lines, next.Lines), "\n"))
	ch.End()
	s.tracer.Keep(ch)
	s.met.PlanChanges.Add(source, 1)
	s.logger.Info("plan change",
		"source", source, "fingerprint", fp,
		"prevCatalog", prev.Catalog, "catalog", version,
		"prevPlan", prev.Sig, "newPlan", next.Sig,
		"prevRT", prev.RT, "newRT", next.RT,
		"prevWork", prev.Work, "newWork", next.Work,
		"traceId", sp.TraceID())
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
