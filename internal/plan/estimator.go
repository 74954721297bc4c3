package plan

import (
	"fmt"

	"paropt/internal/catalog"
	"paropt/internal/query"
)

// Estimator derives logical and physical properties of plan nodes from
// catalog statistics, following the System R conventions the paper assumes.
// It also canonicalizes orderings through join equivalence classes so that
// interesting orders survive joins.
type Estimator struct {
	Cat *catalog.Catalog
	Q   *query.Query

	// classRep maps each query column to its equivalence-class
	// representative (the smallest member), so orderings compare equal
	// across join predicates.
	classRep map[query.ColumnRef]query.ColumnRef
}

// NewEstimator builds an estimator for a validated query.
func NewEstimator(cat *catalog.Catalog, q *query.Query) *Estimator {
	e := &Estimator{Cat: cat, Q: q, classRep: map[query.ColumnRef]query.ColumnRef{}}
	for _, class := range q.EquivalenceClasses() {
		rep := class[0]
		for _, c := range class {
			e.classRep[c] = rep
		}
	}
	return e
}

// Canon maps a column to its equivalence-class representative; columns
// outside any join class map to themselves.
func (e *Estimator) Canon(c query.ColumnRef) query.ColumnRef {
	if rep, ok := e.classRep[c]; ok {
		return rep
	}
	return c
}

// CanonOrdering canonicalizes every column of an ordering.
func (e *Estimator) CanonOrdering(o Ordering) Ordering {
	if len(o) == 0 {
		return nil
	}
	out := make(Ordering, len(o))
	for i, c := range o {
		out[i] = e.Canon(c)
	}
	return out
}

// columnNDV resolves a column's NDV from the catalog.
func (e *Estimator) columnNDV(c query.ColumnRef) int64 {
	rel, ok := e.Cat.Relation(c.Relation)
	if !ok {
		return 1
	}
	col, ok := rel.Column(c.Column)
	if !ok {
		return 1
	}
	return col.NDV
}

// selSelectivity is the estimated selectivity of a leaf selection.
func (e *Estimator) selSelectivity(s query.Selection) float64 {
	if s.Selectivity > 0 {
		return s.Selectivity
	}
	rel, ok := e.Cat.Relation(s.Column.Relation)
	if !ok {
		return 1
	}
	col, ok := rel.Column(s.Column.Column)
	if !ok {
		return 1
	}
	return catalog.EqSelectivity(col)
}

// joinSelectivity is the estimated selectivity of a join predicate.
func (e *Estimator) joinSelectivity(p query.JoinPredicate) float64 {
	if p.Selectivity > 0 {
		return p.Selectivity
	}
	lrel, lok := e.Cat.Relation(p.Left.Relation)
	rrel, rok := e.Cat.Relation(p.Right.Relation)
	if !lok || !rok {
		return 1
	}
	lcol, lok := lrel.Column(p.Left.Column)
	rcol, rok := rrel.Column(p.Right.Column)
	if !lok || !rok {
		return 1
	}
	return catalog.JoinSelectivity(lcol, rcol)
}

// Leaf builds a leaf node for the relation with the given access path,
// deriving cardinality (after the query's selections on that relation),
// width and ordering.
func (e *Estimator) Leaf(rel string, access Access, idx *catalog.Index) (*Node, error) {
	r, ok := e.Cat.Relation(rel)
	if !ok {
		return nil, fmt.Errorf("plan: unknown relation %s", rel)
	}
	pos := e.Q.RelationIndex(rel)
	if pos < 0 {
		return nil, fmt.Errorf("plan: relation %s not in query %s", rel, e.Q.Name)
	}
	if access == IndexScan {
		if idx == nil {
			return nil, fmt.Errorf("plan: index scan on %s needs an index", rel)
		}
		if idx.Relation != rel {
			return nil, fmt.Errorf("plan: index %s is on %s, not %s", idx.Name, idx.Relation, rel)
		}
	}
	card := r.Card
	for _, s := range e.Q.SelectionsOn(rel) {
		card = int64(float64(card) * e.selSelectivity(s))
	}
	if card < 1 {
		card = 1
	}
	n := &Node{
		Relation: rel,
		Access:   access,
		Index:    idx,
		Rels:     query.NewRelSet(pos),
		Card:     card,
		Width:    r.TupleWidth(),
	}
	switch {
	case access == IndexScan:
		o := make(Ordering, len(idx.Columns))
		for i, c := range idx.Columns {
			o[i] = query.ColumnRef{Relation: rel, Column: c}
		}
		n.Order = e.CanonOrdering(o)
	case r.SortedBy != "":
		n.Order = e.CanonOrdering(Ordering{{Relation: rel, Column: r.SortedBy}})
	}
	return n, nil
}

// Join builds a join node over two disjoint subtrees with the given method,
// collecting every query predicate that spans them and deriving output
// properties. Joining two subtrees with no spanning predicate is a cross
// product; it is permitted (Card multiplies) but flagged by CrossProduct.
func (e *Estimator) Join(left, right *Node, method JoinMethod) (*Node, error) {
	preds := e.Q.JoinsBetween(left.Rels, right.Rels)
	n := new(Node)
	if err := e.JoinInto(n, left, right, method, preds, e.MergeOrder(preds)); err != nil {
		return nil, err
	}
	return n, nil
}

// JoinInto is Join writing the join node into n, for a caller that owns the
// node's memory and already holds the spanning predicates: preds must be
// Q.JoinsBetween(left.Rels, right.Rels) and mergeOrder MergeOrder(preds).
// The node keeps both slices, so every node built from one pair of relation
// sets can share them — they are read, never written, downstream.
func (e *Estimator) JoinInto(n, left, right *Node, method JoinMethod, preds []query.JoinPredicate, mergeOrder Ordering) error {
	if !left.Rels.Intersect(right.Rels).Empty() {
		return fmt.Errorf("plan: join operands overlap: %v and %v", left.Rels, right.Rels)
	}
	sel := 1.0
	for _, p := range preds {
		sel *= e.joinSelectivity(p)
	}
	*n = Node{
		Left:   left,
		Right:  right,
		Method: method,
		Preds:  preds,
		Rels:   left.Rels.Union(right.Rels),
		Card:   catalog.JoinCard(left.Card, right.Card, sel),
		Width:  left.Width + right.Width,
	}
	switch method {
	case NestedLoops:
		// Pipelined on the outer: preserves the outer (left) order.
		n.Order = left.Order
	case SortMerge:
		// Output is ordered on the (canonicalized) merge column.
		n.Order = mergeOrder
	case HashJoin:
		// Hash partitioning destroys order.
	}
	return nil
}

// MergeOrder is the output ordering of a sort-merge join over preds: the
// canonical merge column, or none for a cross product.
func (e *Estimator) MergeOrder(preds []query.JoinPredicate) Ordering {
	if len(preds) == 0 {
		return nil
	}
	return e.CanonOrdering(Ordering{preds[0].Left})
}

// CrossProduct reports whether the join node has no spanning predicate.
func CrossProduct(n *Node) bool { return !n.IsLeaf() && len(n.Preds) == 0 }

// MergeSorted reports whether plan subtree sub already delivers the order a
// sort-merge join over the predicates needs on the given side (left or
// right): that side's canonical merge column leads sub's ordering.
func (e *Estimator) MergeSorted(sub *Node, preds []query.JoinPredicate, leftSide bool) bool {
	if len(preds) == 0 || len(sub.Order) == 0 {
		return false
	}
	col := preds[0].Right
	if leftSide {
		col = preds[0].Left
	}
	return sub.Order[0] == e.Canon(col)
}

// JoinColumnNDV estimates the distinct values of the first join predicate's
// column on the chosen side, used to bound partitioning fan-out.
func (e *Estimator) JoinColumnNDV(preds []query.JoinPredicate, leftSide bool) int64 {
	if len(preds) == 0 {
		return 1
	}
	if leftSide {
		return e.columnNDV(preds[0].Left)
	}
	return e.columnNDV(preds[0].Right)
}
