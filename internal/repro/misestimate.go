package repro

import (
	"paropt/internal/catalog"
	"paropt/internal/core"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// Cardinality-misestimation sensitivity: the classic optimizer robustness
// study applied to the response-time objective. The optimizer sees a
// catalog whose NDV statistics are distorted by a factor (overestimating
// NDVs underestimates join output sizes and vice versa); the resulting plan
// is then re-priced under the true statistics. The regret — RT(chosen plan
// under truth) / RT(true optimum) — measures how much estimation quality
// the §5 cost model demands.

// DistortNDVs returns a copy of the catalog with every column NDV
// multiplied by factor (clamped to [1, Card]). Page and cardinality
// statistics stay truthful; only the selectivity inputs are wrong.
func DistortNDVs(cat *catalog.Catalog, factor float64) *catalog.Catalog {
	out := catalog.New()
	out.PageBytes = cat.PageBytes
	for _, name := range cat.RelationNames() {
		rel := *cat.MustRelation(name)
		cols := make([]catalog.Column, len(rel.Columns))
		copy(cols, rel.Columns)
		for i := range cols {
			ndv := int64(float64(cols[i].NDV) * factor)
			if ndv < 1 {
				ndv = 1
			}
			if ndv > rel.Card {
				ndv = rel.Card
			}
			cols[i].NDV = ndv
		}
		rel.Columns = cols
		out.MustAddRelation(rel)
		for _, ix := range cat.IndexesOn(name) {
			out.MustAddIndex(*ix)
		}
	}
	return out
}

// MisestimationRegret optimizes q (unbounded partial-order DP) under a
// distorted catalog, re-prices the chosen join tree under the true catalog,
// and returns (rt of misestimated plan under truth, rt of the true optimum).
func MisestimationRegret(trueCat *catalog.Catalog, q *query.Query, cfg core.Config, factor float64) (chosen, optimum float64, err error) {
	distorted := DistortNDVs(trueCat, factor)
	optBad, err := core.NewOptimizer(distorted, q, cfg)
	if err != nil {
		return 0, 0, err
	}
	pBad, err := Optimize(optBad, Run{})
	if err != nil {
		return 0, 0, err
	}

	optTrue, err := core.NewOptimizer(trueCat, q, cfg)
	if err != nil {
		return 0, 0, err
	}
	pTrue, err := Optimize(optTrue, Run{})
	if err != nil {
		return 0, 0, err
	}
	// Re-price the misestimated plan's join order/methods under truth by
	// rebuilding the tree with the true estimator.
	rebuilt, err := rebuildNode(optTrue, pBad.Tree)
	if err != nil {
		return 0, 0, err
	}
	opt := optTrue.SearchOptions()
	d, _, err := optTrue.Mod.PlanCost(rebuilt, opt.Expand, opt.Annotate)
	if err != nil {
		return 0, 0, err
	}
	return d.RT(), pTrue.RT(), nil
}

// rebuildNode re-derives a plan tree under another optimizer's estimator
// (true statistics), preserving shape, methods and access paths.
func rebuildNode(o *core.Optimizer, n *plan.Node) (*plan.Node, error) {
	if n.IsLeaf() {
		idx := n.Index
		if idx != nil {
			// Resolve the same-named index in the true catalog.
			if resolved, ok := o.Cat.Index(idx.Name); ok {
				idx = resolved
			}
		}
		return o.Est.Leaf(n.Relation, n.Access, idx)
	}
	l, err := rebuildNode(o, n.Left)
	if err != nil {
		return nil, err
	}
	r, err := rebuildNode(o, n.Right)
	if err != nil {
		return nil, err
	}
	return o.Est.Join(l, r, n.Method)
}
