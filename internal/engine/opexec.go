package engine

import (
	"fmt"

	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// ExecuteOp runs a §4.2 operator tree — explicit sorts, merges, builds,
// probes, pure nested loops and create-index operators — by lowering it onto
// the engine's own operators rather than re-deriving them from the join
// tree. This validates the macro expansion on the engine that serves queries:
// for any plan p, ExecuteOp(Expand(p)) must produce exactly the same result
// multiset as Execute(p). Execution is serial (the parallel path lives in
// Execute); a materialized edge is the blocking drain of the operator it
// feeds — the build of a probe, the buffered sides of a merge.
func (e *Executor) ExecuteOp(root *optree.Op) (*Resultset, error) {
	if root == nil {
		return nil, fmt.Errorf("engine: nil operator tree")
	}
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	op, schema, err := e.lower(root)
	if err != nil {
		return nil, err
	}
	return e.result(op, schema)
}

// lower builds the engine operator a §4.2 operator subtree stands for. Build,
// CreateIndex and Sort have no operator of their own: each is the blocking
// phase of the join directly above it and is only accepted there.
func (e *Executor) lower(op *optree.Op) (Operator, Schema, error) {
	switch op.Kind {
	case optree.Scan, optree.IndexScanOp:
		leaf := op.Source
		if leaf == nil || !leaf.IsLeaf() {
			access := plan.SeqScan
			if op.Kind == optree.IndexScanOp {
				access = plan.IndexScan
			}
			leaf = &plan.Node{Relation: op.Relation, Access: access, Index: op.Index}
		}
		return e.scan(leaf)
	case optree.Probe:
		build := op.Inputs[1]
		if build.Kind != optree.Build {
			return nil, nil, fmt.Errorf("engine: probe over %v, wants a build", build.Kind)
		}
		return e.lowerJoin(op, op.Inputs[0], build.Inputs[0], nil, nil)
	case optree.PureNL:
		inner := op.Inputs[1]
		if inner.Kind == optree.CreateIndex {
			inner = inner.Inputs[0]
		}
		return e.lowerJoin(op, op.Inputs[0], inner, nil, nil)
	case optree.Merge:
		l, lsort := underSort(op.Inputs[0])
		r, rsort := underSort(op.Inputs[1])
		return e.lowerJoin(op, l, r, lsort, rsort)
	default:
		return nil, nil, fmt.Errorf("engine: %v is not executable where the tree has it", op.Kind)
	}
}

// underSort strips a merge input's Sort, returning what it sorts and by
// which column (nil: the tree put no sort on this side).
func underSort(in *optree.Op) (*optree.Op, *query.ColumnRef) {
	if in.Kind == optree.Sort {
		return in.Inputs[0], &in.SortKey
	}
	return in, nil
}

// lowerJoin lowers the two inputs of join operator op and joins them:
// crossOp without predicates, mergeJoinOp for a Merge — sorting exactly the
// sides the tree sorts, on the column it sorts them by — and buildProbeOp for
// a Probe or PureNL (the hashed inner is the create-index inflection
// realized).
func (e *Executor) lowerJoin(op, lin, rin *optree.Op, lsort, rsort *query.ColumnRef) (Operator, Schema, error) {
	l, lschema, err := e.lower(lin)
	if err != nil {
		return nil, nil, err
	}
	r, rschema, err := e.lower(rin)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	schema := append(append(Schema(nil), lschema...), rschema...)
	if len(op.Preds) == 0 {
		return &crossOp{left: l, right: r, bs: e.batchSize()}, schema, nil
	}
	lkeys, rkeys, err := joinKeys(op.Preds, lschema, rschema)
	lcol, rcol := -1, -1
	if err == nil {
		lcol, err = sortCol(lsort, lschema)
	}
	if err == nil {
		rcol, err = sortCol(rsort, rschema)
	}
	if err != nil {
		l.Close()
		r.Close()
		return nil, nil, err
	}
	if op.Kind == optree.Merge {
		return &mergeJoinOp{left: l, right: r, lkeys: lkeys, rkeys: rkeys, lsort: lcol, rsort: rcol, bs: e.batchSize()}, schema, nil
	}
	return e.joinFor("nl", l, r, lkeys, rkeys), schema, nil
}

// sortCol resolves the column a merge side is sorted by; -1 when the tree put
// no sort on that side.
func sortCol(key *query.ColumnRef, schema Schema) (int, error) {
	if key == nil {
		return -1, nil
	}
	if pos := schema.IndexOf(*key); pos >= 0 {
		return pos, nil
	}
	return 0, fmt.Errorf("engine: sort key %v not in schema", *key)
}
