// Package accuracy joins the cost model's predicted two-part descriptors
// (tf, tl) against descriptors measured by an instrumented execution
// (engine.ExecStats) — an "explain analyze" for the paper's §5 calculus.
//
// Predicted times are in abstract model units, actual times in seconds, so
// the two are joined through a single calibration scale: the ratio of
// actual to predicted response time at the plan root. After scaling, the
// root's last-tuple error is zero by construction and every other entry's
// relative error measures how well the model predicted the *shape* of the
// execution — which operators dominate, where pipelines stall, how early
// first tuples flow. Per-operator cardinality error (the classic q-error)
// rides along, since misestimated sizes are the usual root cause of
// misestimated times.
package accuracy

import (
	"fmt"
	"math"
	"strings"

	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/optree"
	"paropt/internal/plan"
)

// FragmentAccuracy joins one worker-run fragment's measured (tf, tl)
// against its node's calibrated predictions — the distributed analogue of
// OpAccuracy, one row per committed dispatch attempt. Under the paper's
// uniformity assumption every clone of a parallel join shares the node's
// descriptor, so each fragment is compared against the node-level (tf, tl);
// measured times are offsets from the fragment's dispatch, not from
// execution start, which is the same time base to within one frame's wire
// latency.
type FragmentAccuracy struct {
	Label          string  `json:"label"`
	Part           int     `json:"part"`
	Parts          int     `json:"parts"`
	Worker         string  `json:"worker"`
	Addr           string  `json:"addr,omitempty"`
	ActFirst       float64 `json:"actFirstSeconds"`
	ActLast        float64 `json:"actLastSeconds"`
	PredFirstSec   float64 `json:"predFirstSeconds"`
	PredLastSec    float64 `json:"predLastSeconds"`
	RelErrLast     float64 `json:"relErrLast"`
	Rows           int64   `json:"rows"`
	ResultStallSec float64 `json:"resultStallSeconds"`
	Retried        int     `json:"retried,omitempty"`
	FallbackReason string  `json:"fallbackReason,omitempty"`
}

// LinkAccuracy compares the cost model's interconnect charges against what
// one coordinator↔worker link actually did: observed wire-write time and
// credit-window stall vs the calibrated network prediction.
type LinkAccuracy struct {
	Addr           string  `json:"addr"`
	BytesSent      int64   `json:"bytesSent"`
	BytesRecv      int64   `json:"bytesRecv"`
	SendSeconds    float64 `json:"sendSeconds"`
	StallSeconds   float64 `json:"stallSeconds"`
	PredNetSeconds float64 `json:"predNetSeconds"`
}

// OpAccuracy is the predicted-vs-actual join for one join-tree node.
type OpAccuracy struct {
	// Label names the node ("scan(R1)", "hash-join{R1,R2}").
	Label string `json:"label"`
	// PredFirst and PredLast are the model's (tf, tl) in model units.
	PredFirst float64 `json:"predFirst"`
	PredLast  float64 `json:"predLast"`
	// ActFirst and ActLast are the measured (tf, tl) in seconds. ActFirst
	// is 0 when the node produced no rows.
	ActFirst float64 `json:"actFirstSeconds"`
	ActLast  float64 `json:"actLastSeconds"`
	// PredFirstSec and PredLastSec are the predictions calibrated into
	// seconds with the report scale.
	PredFirstSec float64 `json:"predFirstSeconds"`
	PredLastSec  float64 `json:"predLastSeconds"`
	// RelErrFirst and RelErrLast are signed relative errors of the
	// calibrated predictions: (pred − act)/act. Zero when unmeasurable.
	RelErrFirst float64 `json:"relErrFirst"`
	RelErrLast  float64 `json:"relErrLast"`
	// EstRows and ActRows compare the cardinality model against reality;
	// QErrRows is the q-error max(est/act, act/est) (0 when unmeasurable).
	EstRows  int64   `json:"estRows"`
	ActRows  int64   `json:"actRows"`
	QErrRows float64 `json:"qErrRows"`
	// Clones is how many clones the node's operator ran — measured, not
	// requested: the annotated degree capped by the execution's parallelism,
	// or the owning-worker count of a join over shipped scans.
	Clones int `json:"clones"`
	// Root marks the plan root (its RelErrLast is 0 by calibration).
	Root bool `json:"root,omitempty"`
}

// Report is the whole plan's accuracy join.
type Report struct {
	// Scale is the calibration factor: seconds of actual execution per
	// model time unit, fixed at the root.
	Scale float64 `json:"scaleSecondsPerUnit"`
	// WallSeconds is the measured end-to-end execution time.
	WallSeconds float64 `json:"wallSeconds"`
	// PredictedRT is the model's root response time (model units).
	PredictedRT float64 `json:"predictedRT"`
	// Ops lists per-node rows in execution (bottom-up) order.
	Ops []OpAccuracy `json:"ops"`
	// MeanAbsRelErr averages |RelErr| over every measurable non-root
	// entry — the single number tracking cost-model fidelity.
	MeanAbsRelErr float64 `json:"meanAbsRelErr"`
	// MaxQErrRows is the worst cardinality q-error in the plan.
	MaxQErrRows float64 `json:"maxQErrRows"`
	// Fragments lists worker-side measurements for distributed executions,
	// one row per committed fragment attempt. Empty for local transports.
	Fragments []FragmentAccuracy `json:"fragments,omitempty"`
	// PredNetSeconds is the model's total calibrated interconnect charge —
	// the sum of every operator's network-resource demands times Scale.
	PredNetSeconds float64 `json:"predNetSeconds,omitempty"`
	// Links compares per-link observed wire time against the model's
	// interconnect charges; attached by AttachLinks after execution.
	Links []LinkAccuracy `json:"links,omitempty"`
}

// Analyze joins measured descriptors onto Timeline's predicted rows. mod
// prices the operator tree root (the expansion of the executed join tree);
// stats is the instrumented execution's collector.
func Analyze(mod *cost.Model, root *optree.Op, stats *engine.ExecStats) *Report {
	timeline, predRT := Timeline(mod, root)
	pred := make(map[*plan.Node]OpTimeline, len(timeline))
	for _, tl := range timeline {
		pred[tl.Node] = tl
	}

	nodes := stats.Nodes()
	rep := &Report{WallSeconds: stats.Wall().Seconds(), PredictedRT: predRT}

	// Calibrate on the root: the executed tree's own node is the op tree
	// root's Source.
	for _, st := range nodes {
		if st.Node == root.Source && predRT > 0 {
			rep.Scale = st.Last.Seconds() / predRT
		}
	}

	var errSum float64
	var errN int
	predByNode := make(map[*plan.Node]OpAccuracy, len(nodes))
	for _, st := range nodes {
		tl, ok := pred[st.Node]
		if !ok {
			continue
		}
		oa := OpAccuracy{
			Label:     st.Label,
			PredFirst: tl.PredFirst,
			PredLast:  tl.PredLast,
			ActFirst:  st.First.Seconds(),
			ActLast:   st.Last.Seconds(),
			EstRows:   tl.PredRows,
			ActRows:   st.Rows,
			Clones:    st.Clones,
			Root:      tl.Root,
		}
		if rep.Scale > 0 {
			oa.PredFirstSec = tl.PredFirst * rep.Scale
			oa.PredLastSec = tl.PredLast * rep.Scale
			if oa.ActLast > 0 {
				oa.RelErrLast = (oa.PredLastSec - oa.ActLast) / oa.ActLast
			}
			if oa.ActFirst > 0 {
				oa.RelErrFirst = (oa.PredFirstSec - oa.ActFirst) / oa.ActFirst
			}
		}
		if oa.EstRows > 0 && oa.ActRows > 0 {
			e, a := float64(oa.EstRows), float64(oa.ActRows)
			oa.QErrRows = math.Max(e/a, a/e)
			if oa.QErrRows > rep.MaxQErrRows {
				rep.MaxQErrRows = oa.QErrRows
			}
		}
		if !oa.Root {
			if oa.ActLast > 0 {
				errSum += math.Abs(oa.RelErrLast)
				errN++
			}
			if oa.ActFirst > 0 {
				errSum += math.Abs(oa.RelErrFirst)
				errN++
			}
		}
		rep.Ops = append(rep.Ops, oa)
		predByNode[st.Node] = oa
	}
	if errN > 0 {
		rep.MeanAbsRelErr = errSum / float64(errN)
	}

	// Calibrated total interconnect charge, in seconds: each operator's own
	// demand on the machine's network resources plus its redistribution
	// transfer demands — repartitioned edges charge the wire entirely
	// through the latter. Zero on single-node machines (no network
	// resources) or before calibration.
	if nets := mod.M.Networks(); len(nets) > 0 && rep.Scale > 0 {
		var units float64
		root.Walk(func(op *optree.Op) {
			for _, w := range [2]cost.Vec{mod.OwnDemands(op), mod.TransferDemands(op)} {
				for _, id := range nets {
					if int(id) < len(w) {
						units += w[id]
					}
				}
			}
		})
		rep.PredNetSeconds = units * rep.Scale
	}

	// Join worker-side fragment measurements against their node's calibrated
	// predictions — the distributed half of the report.
	for _, rf := range stats.Remote() {
		pred := predByNode[rf.Node]
		for _, fs := range rf.Stats {
			worker := fs.Worker
			if worker == "" {
				worker = fs.Addr
			}
			fa := FragmentAccuracy{
				Label:          rf.Label,
				Part:           fs.Part,
				Parts:          fs.Parts,
				Worker:         worker,
				Addr:           fs.Addr,
				ActFirst:       float64(fs.FirstNanos) / 1e9,
				ActLast:        float64(fs.LastNanos) / 1e9,
				PredFirstSec:   pred.PredFirstSec,
				PredLastSec:    pred.PredLastSec,
				Rows:           fs.Rows,
				ResultStallSec: float64(fs.ResultStallNanos) / 1e9,
				Retried:        fs.Retried,
				FallbackReason: fs.FallbackReason,
			}
			if fa.ActLast > 0 && fa.PredLastSec > 0 {
				fa.RelErrLast = (fa.PredLastSec - fa.ActLast) / fa.ActLast
			}
			rep.Fragments = append(rep.Fragments, fa)
		}
	}
	return rep
}

// OpTimeline is one join-tree node's predicted (tf, tl) schedule in model
// units, computed before execution so a live coordinator can map measured
// progress onto the model's timeline. PredRows is the cardinality estimate
// the percent-complete heuristic divides measured rows by.
type OpTimeline struct {
	Node      *plan.Node `json:"-"`
	PredFirst float64    `json:"predFirst"`
	PredLast  float64    `json:"predLast"`
	PredRows  int64      `json:"predRows"`
	Root      bool       `json:"root,omitempty"`
}

// Timeline prices every join-tree node under the op tree root and returns
// the per-node predicted schedule plus the root response time (model
// units). It is the plan-time half of Analyze, with no measurements to join
// against yet.
func Timeline(mod *cost.Model, root *optree.Op) ([]OpTimeline, float64) {
	// Topmost operator per join-tree node: Walk visits children before
	// parents, so the last op written for a Source is the subtree root whose
	// cumulative descriptor corresponds to that node's output stream.
	topOp := make(map[*plan.Node]*optree.Op)
	var order []*plan.Node
	root.Walk(func(op *optree.Op) {
		if op.Source != nil {
			if _, seen := topOp[op.Source]; !seen {
				order = append(order, op.Source)
			}
			topOp[op.Source] = op
		}
	})
	out := make([]OpTimeline, 0, len(order))
	for _, n := range order {
		desc := mod.Descriptor(topOp[n])
		out = append(out, OpTimeline{
			Node:      n,
			PredFirst: desc.First.T,
			PredLast:  desc.Last.T,
			PredRows:  n.Card,
			Root:      n == root.Source,
		})
	}
	return out, mod.Descriptor(root).RT()
}

// AttachLinks joins per-link transport counters against the report's
// calibrated interconnect charge. The model prices total network demand,
// not per-link flows, so the prediction is split evenly across links — a
// documented simplification that still exposes order-of-magnitude drift.
func (r *Report) AttachLinks(links []exchange.LinkSnapshot) {
	if len(links) == 0 {
		return
	}
	per := r.PredNetSeconds / float64(len(links))
	for _, ls := range links {
		r.Links = append(r.Links, LinkAccuracy{
			Addr:           ls.Addr,
			BytesSent:      ls.BytesSent,
			BytesRecv:      ls.BytesRecv,
			SendSeconds:    float64(ls.SendNanos) / 1e9,
			StallSeconds:   float64(ls.StallLeftNanos+ls.StallRightNanos+ls.StallResultNanos) / 1e9,
			PredNetSeconds: per,
		})
	}
}

// Errors returns the |relative error| samples of the report — the values a
// cost-model-error histogram observes. Root last-tuple error is excluded
// (zero by calibration); unmeasurable entries are skipped.
func (r *Report) Errors() []float64 {
	var out []float64
	for _, oa := range r.Ops {
		if oa.ActLast > 0 && !oa.Root {
			out = append(out, math.Abs(oa.RelErrLast))
		}
		if oa.ActFirst > 0 {
			out = append(out, math.Abs(oa.RelErrFirst))
		}
	}
	return out
}

// Table renders the report as an EXPLAIN ANALYZE style text table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost-model accuracy (scale: %.3g s/unit, wall %.1f ms, mean |rel err| %.2f, max q-err %.2f)\n",
		r.Scale, r.WallSeconds*1e3, r.MeanAbsRelErr, r.MaxQErrRows)
	fmt.Fprintf(&b, "%-24s %6s %13s %13s %13s %13s %8s %10s %10s %8s\n",
		"node", "clones", "pred tf (ms)", "act tf (ms)", "pred tl (ms)", "act tl (ms)", "err tl", "est rows", "act rows", "q-err")
	ms := func(s float64) string {
		if s == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", s*1e3)
	}
	for _, oa := range r.Ops {
		errTl := "-"
		if oa.ActLast > 0 && !oa.Root {
			errTl = fmt.Sprintf("%+.0f%%", 100*oa.RelErrLast)
		}
		qe := "-"
		if oa.QErrRows > 0 {
			qe = fmt.Sprintf("%.2f", oa.QErrRows)
		}
		fmt.Fprintf(&b, "%-24s %6d %13s %13s %13s %13s %8s %10d %10d %8s\n",
			oa.Label, oa.Clones, ms(oa.PredFirstSec), ms(oa.ActFirst), ms(oa.PredLastSec), ms(oa.ActLast),
			errTl, oa.EstRows, oa.ActRows, qe)
	}
	if len(r.Fragments) > 0 {
		fmt.Fprintf(&b, "\nworker fragments (measured at the worker, offsets from dispatch)\n")
		fmt.Fprintf(&b, "%-24s %6s %-22s %13s %13s %13s %8s %10s %10s\n",
			"node", "part", "worker", "pred tl (ms)", "act tf (ms)", "act tl (ms)", "err tl", "rows", "stall(ms)")
		for _, fa := range r.Fragments {
			errTl := "-"
			if fa.ActLast > 0 && fa.PredLastSec > 0 {
				errTl = fmt.Sprintf("%+.0f%%", 100*fa.RelErrLast)
			}
			who := fa.Worker
			if fa.FallbackReason != "" {
				who += " (fallback: " + fa.FallbackReason + ")"
			} else if fa.Retried > 0 {
				who += fmt.Sprintf(" (retried %d)", fa.Retried)
			}
			fmt.Fprintf(&b, "%-24s %3d/%-2d %-22s %13s %13s %13s %8s %10d %10s\n",
				fa.Label, fa.Part, fa.Parts, who, ms(fa.PredLastSec), ms(fa.ActFirst), ms(fa.ActLast),
				errTl, fa.Rows, ms(fa.ResultStallSec))
		}
	}
	if len(r.Links) > 0 {
		fmt.Fprintf(&b, "\ninterconnect links (predicted charge %.3f ms total, split evenly)\n", r.PredNetSeconds*1e3)
		fmt.Fprintf(&b, "%-22s %12s %12s %13s %13s %13s\n",
			"link", "sent (B)", "recv (B)", "pred (ms)", "wire (ms)", "stall (ms)")
		for _, la := range r.Links {
			fmt.Fprintf(&b, "%-22s %12d %12d %13s %13s %13s\n",
				la.Addr, la.BytesSent, la.BytesRecv, ms(la.PredNetSeconds), ms(la.SendSeconds), ms(la.StallSeconds))
		}
	}
	return b.String()
}
