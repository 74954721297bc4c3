package optree

import (
	"fmt"

	"paropt/internal/plan"
	"paropt/internal/query"
)

// ExpandOptions tunes the macro expansion.
type ExpandOptions struct {
	// CreateIndexThreshold: when a nested-loops inner is a plain heap scan
	// with at least this many tuples, expand with an explicit create-index
	// inflection (§4.2). Zero disables temporary index creation.
	CreateIndexThreshold int64
}

// DefaultExpandOptions builds temporary indexes for inners of 1000+ tuples.
func DefaultExpandOptions() ExpandOptions {
	return ExpandOptions{CreateIndexThreshold: 1000}
}

// Expand macro-expands an annotated join tree into its unique operator tree
// (§4.2). The estimator supplies canonicalized orderings so that sorts are
// elided for inputs that already carry the merge order (the paper: "if R2 is
// already sorted then only one sort operation needs to be stated").
func Expand(n *plan.Node, est *plan.Estimator, opts ExpandOptions) (*Op, error) {
	if n == nil {
		return nil, fmt.Errorf("optree: nil plan")
	}
	op, err := expand(n, est, opts)
	if err != nil {
		return nil, err
	}
	if err := op.Validate(); err != nil {
		return nil, err
	}
	return op, nil
}

// ExpandOver is Expand for a join node whose left operand was expanded
// before, into left: only the right operand and the method's root operators
// are built and validated. The edge annotations to the new parent live on the
// child, so left's root is shallow-copied and the caller's tree never
// mutated; the copy is returned as done, the subtree AnnotateAbove and
// cost.Model.ExtendCost leave alone. A nil left expands the whole tree.
func ExpandOver(n *plan.Node, left *Op, est *plan.Estimator, opts ExpandOptions) (root, done *Op, err error) {
	if left == nil {
		root, err = Expand(n, est, opts)
		return root, nil, err
	}
	cp := *left
	right, err := expand(n.Right, est, opts)
	if err != nil {
		return nil, nil, err
	}
	if root, err = expandJoin(n, &cp, right, est, opts); err != nil {
		return nil, nil, err
	}
	return root, &cp, root.validate(&cp)
}

func expand(n *plan.Node, est *plan.Estimator, opts ExpandOptions) (*Op, error) {
	if n.IsLeaf() {
		kind := Scan
		if n.Access == plan.IndexScan {
			kind = IndexScanOp
		}
		return &Op{
			Kind:        kind,
			Relation:    n.Relation,
			Index:       n.Index,
			Composition: Pipelined,
			OutCard:     n.Card,
			Width:       n.Width,
			Source:      n,
		}, nil
	}
	left, err := expand(n.Left, est, opts)
	if err != nil {
		return nil, err
	}
	right, err := expand(n.Right, est, opts)
	if err != nil {
		return nil, err
	}
	return expandJoin(n, left, right, est, opts)
}

// expandJoin builds the root operators of join node n over its expanded
// operands.
func expandJoin(n *plan.Node, left, right *Op, est *plan.Estimator, opts ExpandOptions) (*Op, error) {
	switch n.Method {
	case plan.SortMerge:
		var lKey, rKey query.ColumnRef
		if len(n.Preds) > 0 {
			lKey, rKey = n.Preds[0].Left, n.Preds[0].Right
			// Orient the predicate to the operands: its Left column may
			// belong to the plan's right subtree.
			if pos := est.Q.RelationIndex(lKey.Relation); pos >= 0 && !n.Left.Rels.Has(pos) {
				lKey, rKey = rKey, lKey
			}
		}
		lIn := sortIfNeeded(left, n.Left, est.MergeOrder(n.Preds, true), lKey, n)
		rIn := sortIfNeeded(right, n.Right, est.MergeOrder(n.Preds, false), rKey, n)
		return &Op{
			Kind:        Merge,
			Inputs:      []*Op{lIn, rIn},
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}, nil
	case plan.HashJoin:
		build := &Op{
			Kind:        Build,
			Inputs:      []*Op{right},
			Composition: Materialized, // probe cannot start before build completes
			InCard:      n.Right.Card,
			OutCard:     n.Right.Card,
			Width:       n.Right.Width,
			Source:      n,
		}
		return &Op{
			Kind:        Probe,
			Inputs:      []*Op{left, build},
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}, nil
	case plan.NestedLoops:
		inner := right
		// A non-base inner cannot be rescanned per outer tuple; it must be
		// materialized into a temporary the loop can rescan.
		if inner.Kind != Scan && inner.Kind != IndexScanOp {
			inner.Composition = Materialized
		}
		// Inflection: build a temporary index over a large heap-scanned
		// inner so each outer tuple probes instead of rescanning.
		if right.Kind == Scan && opts.CreateIndexThreshold > 0 &&
			n.Right.Card >= opts.CreateIndexThreshold && len(n.Preds) > 0 {
			inner = &Op{
				Kind:        CreateIndex,
				Inputs:      []*Op{right},
				Composition: Materialized,
				InCard:      n.Right.Card,
				OutCard:     n.Right.Card,
				Width:       n.Right.Width,
				Source:      n,
			}
		}
		return &Op{
			Kind:        PureNL,
			Inputs:      []*Op{left, inner},
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}, nil
	default:
		return nil, fmt.Errorf("optree: unknown join method %v", n.Method)
	}
}

// sortIfNeeded wraps in with an explicit Sort unless the plan subtree
// already delivers the required merge order. key is the raw (uncanonical)
// merge column on this side, recorded so the execution engine can sort.
func sortIfNeeded(in *Op, sub *plan.Node, want plan.Ordering, key query.ColumnRef, join *plan.Node) *Op {
	if !want.Empty() && want.Prefix(sub.Order) {
		// Already ordered: the child feeds the merge directly; the merge
		// can consume it pipelined but must still wait for the *other*
		// side's sort, which the calculus handles via the materialized
		// front.
		return in
	}
	return &Op{
		Kind:        Sort,
		Inputs:      []*Op{in},
		Composition: Materialized,
		InCard:      sub.Card,
		OutCard:     sub.Card,
		Width:       sub.Width,
		SortKey:     key,
		Source:      join,
	}
}
