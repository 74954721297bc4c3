package core

import (
	"fmt"
	"sort"
	"strings"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/search"
)

// Plan provenance: *why* the optimizer chose the plan it chose. The chosen
// candidate's full cost-descriptor breakdown — (tf, tl), per-resource work
// including every interconnect link charge, and the data placements that
// shaped it — plus the top rejected frontier alternatives with the reason
// each one lost (inadmissible under the §2 bound, higher response time, or a
// final-comparator tie-break). Served by the daemon's /explain?why=1 and the
// paropt CLI's -why flag.

// ResourceCharge is one nonzero coordinate of the chosen plan's work vector,
// labeled with the machine resource it is charged to.
type ResourceCharge struct {
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	Node     int     `json:"node"`
	Work     float64 `json:"work"`
}

// CostBreakdown opens up one candidate's resource descriptor.
type CostBreakdown struct {
	// FirstTuple (tf) and ResponseTime (tl) are the §5 descriptor times.
	FirstTuple   float64 `json:"firstTuple"`
	ResponseTime float64 `json:"responseTime"`
	// Work is the summed last-tuple work vector (the §2 bounded quantity).
	Work float64 `json:"work"`
	// Charges lists every resource with nonzero work, in resource-ID order.
	Charges []ResourceCharge `json:"charges,omitempty"`
	// LinkWork is the summed interconnect (network-kind) charges and
	// LinksCharged the number of distinct links carrying them — zero for a
	// fully co-located plan.
	LinkWork     float64 `json:"linkWork"`
	LinksCharged int     `json:"linksCharged"`
}

// PlacementNote is one data-placement entry in effect during the search.
type PlacementNote struct {
	Relation string `json:"relation"`
	Column   string `json:"column"`
	Nodes    []int  `json:"nodes"`
}

// RejectedAlternative is one frontier member that was not chosen.
type RejectedAlternative struct {
	Plan string        `json:"plan"`
	Cost CostBreakdown `json:"cost"`
	// Reason states why the member lost to the chosen plan.
	Reason string `json:"reason"`
}

// Provenance is the full why-this-plan record.
type Provenance struct {
	Algorithm string `json:"algorithm"`
	// Bound names the §2 policy applied ("" when unbounded).
	Bound string `json:"bound,omitempty"`
	// Plan is the chosen join tree (compact one-line form) and Cost its
	// breakdown.
	Plan string        `json:"plan"`
	Cost CostBreakdown `json:"cost"`
	// Baseline is the §2 work-optimal baseline (nil for an unbounded offline
	// run, which computes none).
	Baseline *BaselineRef `json:"baseline,omitempty"`
	// Placements lists the data placements that shaped interconnect charges.
	Placements []PlacementNote `json:"placements,omitempty"`
	// FrontierSize is the root cover set's size; Rejected holds the top
	// alternatives (under the final comparator) that lost, with reasons.
	FrontierSize int                   `json:"frontierSize"`
	Rejected     []RejectedAlternative `json:"rejected,omitempty"`
}

// breakdown opens a descriptor against the session machine.
func (o *Optimizer) breakdown(d cost.ResDescriptor) CostBreakdown {
	out := CostBreakdown{
		FirstTuple:   float64(d.First.T),
		ResponseTime: float64(d.Last.T),
		Work:         d.Work(),
	}
	for _, r := range o.M.Resources() {
		i := int(r.ID)
		if i >= len(d.Last.W) {
			break
		}
		w := d.Last.W[i]
		if w == 0 {
			continue
		}
		out.Charges = append(out.Charges, ResourceCharge{
			Resource: r.Name, Kind: r.Kind.String(), Node: r.Node, Work: w,
		})
		if r.Kind == machine.Network {
			out.LinkWork += w
			out.LinksCharged++
		}
	}
	return out
}

// ProvenanceTopK is how many rejected alternatives a why-record lists. A
// cached cover keeps every member beaten by at most that many others
// (reachable), so the list is the same from the cache as from the search.
const ProvenanceTopK = 5

// PlanProvenance builds the why-record for a finished plan: the chosen
// candidate's breakdown plus the ProvenanceTopK best rejected frontier
// alternatives under the session's final comparator, each labeled with the §2
// bound verdict or its response-time loss. The plan's own Frontier and
// Baseline (attached by SelectBounded or repro.Optimize) supply the
// alternatives; a plan without a frontier yields no rejected entries but
// still gets its breakdown.
func (o *Optimizer) PlanProvenance(p *Plan, bound search.Bound) *Provenance {
	pv := &Provenance{
		Algorithm:    p.Algorithm,
		Plan:         p.Tree.String(),
		Cost:         o.breakdown(p.Desc),
		FrontierSize: p.FrontierSize,
	}
	if bound != nil {
		pv.Bound = bound.Name()
	}
	var wo, to float64
	if p.Baseline != nil {
		pv.Baseline = &BaselineRef{RT: p.Baseline.RT(), Work: p.Baseline.Work()}
		wo, to = p.Baseline.Work(), p.Baseline.RT()
	}
	for name, pr := range o.Mod.Placed {
		pv.Placements = append(pv.Placements, PlacementNote{
			Relation: name, Column: pr.Column, Nodes: append([]int(nil), pr.Nodes...),
		})
	}
	sort.Slice(pv.Placements, func(i, j int) bool { return pv.Placements[i].Relation < pv.Placements[j].Relation })

	var rejected []*search.Candidate
	for _, c := range p.Frontier {
		if c.Node != p.Tree { // not the chosen plan itself
			rejected = append(rejected, c)
		}
	}
	sort.SliceStable(rejected, func(i, j int) bool { return o.opts.Final(rejected[i], rejected[j]) })
	if len(rejected) > ProvenanceTopK {
		rejected = rejected[:ProvenanceTopK]
	}
	for _, c := range rejected {
		pv.Rejected = append(pv.Rejected, RejectedAlternative{
			Plan:   c.Node.String(),
			Cost:   o.breakdown(c.Desc),
			Reason: o.lossReason(c, p, bound, wo, to),
		})
	}
	return pv
}

// lossReason explains why a frontier member lost to the chosen plan.
func (o *Optimizer) lossReason(c *search.Candidate, p *Plan, bound search.Bound, wo, to float64) string {
	if bound != nil && p.Baseline != nil && !bound.Admissible(c.Work(), c.RT(), wo, to) {
		return fmt.Sprintf("inadmissible under %s: work %.2f vs baseline %.2f", bound.Name(), c.Work(), wo)
	}
	if c.RT() > p.RT() {
		return fmt.Sprintf("response time +%.1f%% over chosen (%.2f vs %.2f)",
			100*(c.RT()-p.RT())/p.RT(), c.RT(), p.RT())
	}
	return fmt.Sprintf("lost final tie-break (rt %.2f, work %.2f vs chosen work %.2f)",
		c.RT(), c.Work(), p.Work())
}

// Text renders the provenance as an indented report (the -why / ?why=1
// human-readable form).
func (pv *Provenance) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "why: algorithm %s", pv.Algorithm)
	if pv.Bound != "" {
		fmt.Fprintf(&b, ", bound %s", pv.Bound)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "chosen: %s\n", pv.Plan)
	writeBreakdown(&b, "  ", pv.Cost)
	if pv.Baseline != nil {
		fmt.Fprintf(&b, "  baseline: rt=%.2f work=%.2f\n", pv.Baseline.RT, pv.Baseline.Work)
	}
	for _, pl := range pv.Placements {
		fmt.Fprintf(&b, "  placement: %s by %s on nodes %v\n", pl.Relation, pl.Column, pl.Nodes)
	}
	fmt.Fprintf(&b, "rejected alternatives (%d shown of %d frontier members):\n",
		len(pv.Rejected), pv.FrontierSize)
	for i, r := range pv.Rejected {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, r.Plan)
		writeBreakdown(&b, "     ", r.Cost)
		fmt.Fprintf(&b, "     reason: %s\n", r.Reason)
	}
	return b.String()
}

// writeBreakdown renders one cost breakdown with the given indent.
func writeBreakdown(b *strings.Builder, indent string, c CostBreakdown) {
	fmt.Fprintf(b, "%srt=%.2f (tf=%.2f tl=%.2f) work=%.2f\n",
		indent, c.ResponseTime, c.FirstTuple, c.ResponseTime, c.Work)
	if len(c.Charges) > 0 {
		parts := make([]string, len(c.Charges))
		for i, ch := range c.Charges {
			parts[i] = fmt.Sprintf("%s=%.2f", ch.Resource, ch.Work)
		}
		fmt.Fprintf(b, "%scharges: %s\n", indent, strings.Join(parts, " "))
	}
	if c.LinksCharged > 0 {
		fmt.Fprintf(b, "%sinterconnect: %.2f over %d link(s)\n", indent, c.LinkWork, c.LinksCharged)
	} else {
		fmt.Fprintf(b, "%sinterconnect: none (co-located)\n", indent)
	}
}
