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
	root, _, err := ExpandOver(nil, n, nil, est, opts)
	return root, err
}

// ExpandOver is Expand into the arena a for a join node whose left operand
// was expanded before, into left: only the right operand and the method's
// root operators are built and validated. The edge annotations to the new
// parent live on the child, so left's root is copied into a and the caller's
// tree never mutated; the copy is returned as done, the subtree AnnotateAbove
// and cost.Model.ExtendCost leave alone. A nil left expands the whole tree.
func ExpandOver(a *Arena, n *plan.Node, left *Op, est *plan.Estimator, opts ExpandOptions) (root, done *Op, err error) {
	if n == nil {
		return nil, nil, fmt.Errorf("optree: nil plan")
	}
	if left != nil {
		done = a.op(*left)
	}
	if root, err = a.expand(n, done, est, opts); err != nil {
		return nil, nil, err
	}
	return root, done, root.validate(done)
}

// expand expands n, taking over as its left operand's tree when set.
func (a *Arena) expand(n *plan.Node, over *Op, est *plan.Estimator, opts ExpandOptions) (*Op, error) {
	if n.IsLeaf() {
		kind := Scan
		if n.Access == plan.IndexScan {
			kind = IndexScanOp
		}
		return a.op(Op{
			Kind:        kind,
			Relation:    n.Relation,
			Index:       n.Index,
			Composition: Pipelined,
			OutCard:     n.Card,
			Width:       n.Width,
			Source:      n,
		}), nil
	}
	left, err := over, error(nil)
	if left == nil {
		if left, err = a.expand(n.Left, nil, est, opts); err != nil {
			return nil, err
		}
	}
	right, err := a.expand(n.Right, nil, est, opts)
	if err != nil {
		return nil, err
	}
	return a.expandJoin(n, left, right, est, opts)
}

// expandJoin builds the root operators of join node n over its expanded
// operands.
func (a *Arena) expandJoin(n *plan.Node, left, right *Op, est *plan.Estimator, opts ExpandOptions) (*Op, error) {
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
		lIn := a.sortIfNeeded(left, n.Left, est.MergeSorted(n.Left, n.Preds, true), lKey, n)
		rIn := a.sortIfNeeded(right, n.Right, est.MergeSorted(n.Right, n.Preds, false), rKey, n)
		return a.op(Op{
			Kind:        Merge,
			Inputs:      a.inputs(lIn, rIn),
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}), nil
	case plan.HashJoin:
		build := a.op(Op{
			Kind:        Build,
			Inputs:      a.inputs(right),
			Composition: Materialized, // probe cannot start before build completes
			InCard:      n.Right.Card,
			OutCard:     n.Right.Card,
			Width:       n.Right.Width,
			Source:      n,
		})
		return a.op(Op{
			Kind:        Probe,
			Inputs:      a.inputs(left, build),
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}), nil
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
			inner = a.op(Op{
				Kind:        CreateIndex,
				Inputs:      a.inputs(right),
				Composition: Materialized,
				InCard:      n.Right.Card,
				OutCard:     n.Right.Card,
				Width:       n.Right.Width,
				Source:      n,
			})
		}
		return a.op(Op{
			Kind:        PureNL,
			Inputs:      a.inputs(left, inner),
			Composition: Pipelined,
			InCard:      n.Left.Card,
			OutCard:     n.Card,
			Width:       n.Width,
			Preds:       n.Preds,
			Source:      n,
		}), nil
	default:
		return nil, fmt.Errorf("optree: unknown join method %v", n.Method)
	}
}

// sortIfNeeded wraps in with an explicit Sort unless the plan subtree is
// sorted already. key is the raw (uncanonical) merge column on this side,
// recorded so the execution engine can sort.
func (a *Arena) sortIfNeeded(in *Op, sub *plan.Node, sorted bool, key query.ColumnRef, join *plan.Node) *Op {
	if sorted {
		// Already ordered: the child feeds the merge directly; the merge
		// can consume it pipelined but must still wait for the *other*
		// side's sort, which the calculus handles via the materialized
		// front.
		return in
	}
	return a.op(Op{
		Kind:        Sort,
		Inputs:      a.inputs(in),
		Composition: Materialized,
		InCard:      sub.Card,
		OutCard:     sub.Card,
		Width:       sub.Width,
		SortKey:     key,
		Source:      join,
	})
}
