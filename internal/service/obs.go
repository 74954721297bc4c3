package service

import (
	"fmt"
	"time"

	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
	"paropt/internal/obs/accuracy"
	"paropt/internal/search"
)

// graftSearch lays a finished search's record under the search span: a
// baseline child for the §2 baseline and one dp-layer-k child per layer
// record, each placed at its measured start and as wide as its measured wall
// time — a baseline run beside the layers overlaps them — and carrying its
// counters and how many goroutines did its work; the search totals land as
// attributes on the search span itself.
func graftSearch(sp *obs.Span, st search.Stats) {
	if sp == nil {
		return
	}
	if st.Baseline != nil {
		graftLayer(sp, "baseline", *st.Baseline)
	}
	for _, rec := range st.Layers {
		graftLayer(sp, fmt.Sprintf("dp-layer-%d", rec.Card), rec)
	}
	sp.SetAttr("plansConsidered", st.PlansConsidered)
	sp.SetAttr("physicalPlans", st.PhysicalPlans)
	sp.SetAttr("maxCoverSize", st.MaxCoverSize)
	sp.SetAttr("pruned", st.Pruned)
	sp.SetAttr("prunedDominance", st.PrunedDominance)
	sp.SetAttr("prunedWork", st.PrunedWork)
	sp.SetAttr("prunedMemory", st.PrunedMemory)
	sp.SetAttr("prunedBeam", st.PrunedBeam)
}

// graftLayer adds one layer record as a child span of sp.
func graftLayer(sp *obs.Span, name string, rec search.LayerRecord) {
	c := sp.Child(name)
	c.SetTimes(rec.Start, time.Time{}, rec.Start.Add(time.Duration(rec.WallNanos)))
	c.SetAttr("subsets", rec.Subsets)
	c.SetAttr("plansStored", rec.Kept)
	c.SetAttr("considered", rec.Considered)
	c.SetAttr("pruned", rec.Pruned())
	c.SetAttr("maxCover", rec.MaxCover)
	c.SetAttr("workers", rec.Workers)
}

// graftAnalyze grafts an instrumented execution under the execute span: one
// child span per join-tree node whose (start, first-output, end) are the
// measured runtime descriptor, annotated with the clones it ran and the
// calibrated predictions so the trace tree shows predicted vs actual (tf, tl)
// side by side.
func graftAnalyze(sp *obs.Span, rep *accuracy.Report, stats *engine.ExecStats) {
	if sp == nil {
		return
	}
	byLabel := make(map[string]accuracy.OpAccuracy, len(rep.Ops))
	for _, oa := range rep.Ops {
		byLabel[oa.Label] = oa
	}
	t0 := stats.T0
	for _, st := range stats.Nodes() {
		c := sp.Child(st.Label)
		var first time.Time
		if st.Rows > 0 {
			first = t0.Add(st.First)
		}
		c.SetTimes(t0.Add(st.Start), first, t0.Add(st.Last))
		c.SetAttr("rows", st.Rows)
		c.SetAttr("batches", st.Batches)
		c.SetAttr("clones", st.Clones)
		if oa, ok := byLabel[st.Label]; ok {
			c.SetAttr("predTfMicros", int64(oa.PredFirstSec*1e6))
			c.SetAttr("predTlMicros", int64(oa.PredLastSec*1e6))
			c.SetAttr("estRows", oa.EstRows)
			if !oa.Root && oa.ActLast > 0 {
				c.SetAttr("relErrTl", fmt.Sprintf("%+.2f", oa.RelErrLast))
			}
		}
	}
}

// graftRemote merges the workers' span trees into the request trace: each
// fragment a worker executed arrives as a RemoteSpan tree of relative
// nanosecond offsets, which is grafted under the execute span anchored at
// the coordinator's dispatch timestamp. No cross-machine clock agreement is
// needed — the offsets are worker-local durations and the anchor is
// coordinator-local, so the merged tree lines up modulo one network hop.
func graftRemote(sp *obs.Span, stats *engine.ExecStats) {
	if sp == nil || stats == nil {
		return
	}
	for _, rf := range stats.Remote() {
		for _, fs := range rf.Stats {
			if fs == nil || fs.Span == nil {
				continue
			}
			anchor := fs.Dispatched
			if anchor.IsZero() {
				anchor = stats.T0
			}
			c := graftRemoteSpan(sp, fs.Span, anchor)
			c.SetAttr("node", rf.Label)
			c.SetAttr("part", fmt.Sprintf("%d/%d", fs.Part, fs.Parts))
			if fs.Addr != "" {
				c.SetAttr("addr", fs.Addr)
			}
			if fs.ResultStallNanos > 0 {
				c.SetAttr("resultStallMicros", fs.ResultStallNanos/1e3)
			}
			if fs.Retried > 0 {
				c.SetAttr("retried", fs.Retried)
			}
			if fs.FallbackReason != "" {
				c.SetAttr("fallbackReason", fs.FallbackReason)
			}
		}
	}
}

// graftRemoteSpan recursively converts one worker-measured span (relative
// offsets) into a trace span anchored at the coordinator-side timestamp.
func graftRemoteSpan(parent *obs.Span, rs *exchange.RemoteSpan, anchor time.Time) *obs.Span {
	c := parent.Child(rs.Name)
	var first time.Time
	if rs.FirstNanos > 0 {
		first = anchor.Add(time.Duration(rs.FirstNanos))
	}
	c.SetTimes(anchor.Add(time.Duration(rs.StartNanos)), first, anchor.Add(time.Duration(rs.EndNanos)))
	for k, v := range rs.Attrs {
		c.SetAttr(k, v)
	}
	for _, child := range rs.Children {
		graftRemoteSpan(c, child, anchor)
	}
	return c
}
