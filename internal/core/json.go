package core

import (
	"encoding/json"

	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/search"
)

// JSON explain: a stable machine-readable rendering of an optimized plan
// for tools (dashboards, plan diffing, regression suites).

// PlanJSON is the serialized form of a Plan.
type PlanJSON struct {
	Algorithm string       `json:"algorithm"`
	RT        float64      `json:"responseTime"`
	Work      float64      `json:"work"`
	Tree      *NodeJSON    `json:"tree"`
	Operators []OpJSON     `json:"operators"`
	Search    SearchJSON   `json:"search"`
	Baseline  *BaselineRef `json:"baseline,omitempty"`
}

// NodeJSON serializes a join-tree node.
type NodeJSON struct {
	Kind     string    `json:"kind"` // "scan", "indexScan" or a join method
	Relation string    `json:"relation,omitempty"`
	Index    string    `json:"index,omitempty"`
	Card     int64     `json:"card"`
	Order    string    `json:"order,omitempty"`
	Left     *NodeJSON `json:"left,omitempty"`
	Right    *NodeJSON `json:"right,omitempty"`
}

// OpJSON serializes one operator-tree node in execution order.
type OpJSON struct {
	Kind         string `json:"kind"`
	Relation     string `json:"relation,omitempty"`
	Card         int64  `json:"card"`
	CloneDegree  int    `json:"cloneDegree"`
	Materialized bool   `json:"materialized"`
	Redistribute bool   `json:"redistribute"`
	Depth        int    `json:"depth"`
}

// SearchJSON serializes the search counters, the prune counts split by
// rejecting test, and the per-layer profile.
type SearchJSON struct {
	PlansConsidered int64 `json:"plansConsidered"`
	PhysicalPlans   int64 `json:"physicalPlans"`
	MaxCoverSize    int   `json:"maxCoverSize"`
	Pruned          int64 `json:"pruned"`
	PrunedDominance int64 `json:"prunedDominance,omitempty"`
	PrunedWork      int64 `json:"prunedWork,omitempty"`
	PrunedMemory    int64 `json:"prunedMemory,omitempty"`
	PrunedBeam      int64 `json:"prunedBeam,omitempty"`

	Profile *search.SearchProfile `json:"profile,omitempty"`
}

// BaselineRef summarizes the §2 work-optimal baseline.
type BaselineRef struct {
	RT   float64 `json:"responseTime"`
	Work float64 `json:"work"`
}

// ExplainJSON renders the plan as indented JSON.
func (o *Optimizer) ExplainJSON(p *Plan) ([]byte, error) {
	out := PlanJSON{
		Algorithm: p.Algorithm,
		RT:        p.RT(),
		Work:      p.Work(),
		Tree:      nodeJSON(p.Tree),
		Search: SearchJSON{
			PlansConsidered: p.Stats.PlansConsidered,
			PhysicalPlans:   p.Stats.PhysicalPlans,
			MaxCoverSize:    p.Stats.MaxCoverSize,
			Pruned:          p.Stats.Pruned,
			PrunedDominance: p.Stats.PrunedDominance,
			PrunedWork:      p.Stats.PrunedWork,
			PrunedMemory:    p.Stats.PrunedMemory,
			PrunedBeam:      p.Stats.PrunedBeam,
		},
	}
	if len(p.Stats.Layers) > 0 {
		prof := p.Stats.Profile()
		out.Search.Profile = &prof
	}
	if p.Baseline != nil {
		out.Baseline = &BaselineRef{RT: p.Baseline.RT(), Work: p.Baseline.Work()}
	}
	var walk func(op *optree.Op, depth int)
	walk = func(op *optree.Op, depth int) {
		for _, in := range op.Inputs {
			walk(in, depth+1)
		}
		out.Operators = append(out.Operators, OpJSON{
			Kind:         op.Kind.String(),
			Relation:     op.Relation,
			Card:         op.OutCard,
			CloneDegree:  op.Clone.Degree(),
			Materialized: op.Composition == optree.Materialized,
			Redistribute: op.Redistribute,
			Depth:        depth,
		})
	}
	walk(p.Op, 0)
	return json.MarshalIndent(out, "", "  ")
}

// nodeJSON converts a join-tree node recursively.
func nodeJSON(n *plan.Node) *NodeJSON {
	if n == nil {
		return nil
	}
	out := &NodeJSON{Card: n.Card, Order: n.Order.String()}
	if out.Order == "-" {
		out.Order = ""
	}
	if n.IsLeaf() {
		out.Kind = n.Access.String()
		out.Relation = n.Relation
		if n.Index != nil {
			out.Index = n.Index.Name
		}
		return out
	}
	out.Kind = n.Method.String()
	out.Left = nodeJSON(n.Left)
	out.Right = nodeJSON(n.Right)
	return out
}
