package engine

import (
	"fmt"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// ExecuteOp runs a §4.2 operator tree — explicit sorts, merges, builds,
// probes, pure nested loops and create-index operators — by lowering it onto
// the engine's operators: the plan the cost model priced is the plan that
// runs. Each join runs as many clones as its cloning annotation says, capped
// at Parallel; a materialized edge is the blocking drain of the operator it
// feeds — the build of a probe, the buffered sides of a merge.
func (e *Executor) ExecuteOp(root *optree.Op) (*Resultset, error) {
	op, schema, err := e.open(root)
	if err != nil {
		return nil, err
	}
	return e.result(op, schema)
}

// Run executes the operator tree as ExecuteOp does but keeps no result: it
// returns the result's row count, and releases each root batch once counted,
// so a measured execution (EXPLAIN ANALYZE) holds what is in flight rather
// than what it produced.
func (e *Executor) Run(root *optree.Op) (int, error) {
	op, _, err := e.open(root)
	if err != nil {
		return 0, err
	}
	defer op.Close()
	rows := 0
	if err := drain(e.ctx(), op, func(b Batch) {
		rows += b.Len()
		b.Release()
	}); err != nil {
		return 0, err
	}
	return rows, nil
}

// open validates an operator tree and lowers it to its root operator.
func (e *Executor) open(root *optree.Op) (Operator, Schema, error) {
	if root == nil {
		return nil, nil, fmt.Errorf("engine: nil operator tree")
	}
	if err := root.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: %w", err)
	}
	op, schema, _, err := e.lower(root)
	return op, schema, err
}

// Execute runs a join tree nobody annotated: it expands the tree into the
// operators ExecuteOp lowers — a hash join to a probe over a build, a merge
// over a sort of each side, nested loops to a pure nested-loops join — with
// no cloning annotation, so every join runs at Parallel.
func (e *Executor) Execute(n *plan.Node) (*Resultset, error) {
	if n == nil {
		return nil, fmt.Errorf("engine: nil plan")
	}
	return e.ExecuteOp(e.expand(n))
}

// expand is Execute's expansion of a join-tree subtree.
func (e *Executor) expand(n *plan.Node) *optree.Op {
	if n.IsLeaf() {
		kind := optree.Scan
		if n.Access == plan.IndexScan {
			kind = optree.IndexScanOp
		}
		return &optree.Op{Kind: kind, Relation: n.Relation, Index: n.Index, Source: n}
	}
	l, r := e.expand(n.Left), e.expand(n.Right)
	op := &optree.Op{Kind: optree.PureNL, Inputs: []*optree.Op{l, r}, Preds: n.Preds, Source: n}
	switch n.Method {
	case plan.HashJoin:
		op.Kind = optree.Probe
		op.Inputs[1] = &optree.Op{Kind: optree.Build, Inputs: []*optree.Op{r}, Source: n}
	case plan.SortMerge:
		op.Kind = optree.Merge
		if len(n.Preds) > 0 {
			lk, rk := n.Preds[0].Left, n.Preds[0].Right
			if !n.Left.Rels.Has(e.Q.RelationIndex(lk.Relation)) {
				lk, rk = rk, lk
			}
			op.Inputs[0] = &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{l}, SortKey: lk, Source: n}
			op.Inputs[1] = &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{r}, SortKey: rk, Source: n}
		}
	}
	return op
}

// lower builds the engine operator a §4.2 operator subtree stands for, and
// reports whether that operator delivers the order the plan credits the
// subtree with (plan.Node.Order): a cloned join's output is its partitions
// interleaved, so it and every nested loop or probe whose outer it feeds
// deliver no order. Build, CreateIndex and Sort have no operator of their
// own: each is the blocking phase of the join directly above it and is only
// accepted there.
func (e *Executor) lower(op *optree.Op) (Operator, Schema, bool, error) {
	switch op.Kind {
	case optree.Scan, optree.IndexScanOp:
		var ix *catalog.Index
		if op.Kind == optree.IndexScanOp {
			ix = op.Index
		}
		scan, schema, err := e.scan(op.Relation, ix)
		if err != nil {
			return nil, nil, false, err
		}
		return e.record(op, scan, 1), schema, true, nil
	case optree.Probe:
		build := op.Inputs[1]
		if build.Kind != optree.Build {
			return nil, nil, false, fmt.Errorf("engine: probe over %v, wants a build", build.Kind)
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
		return nil, nil, false, fmt.Errorf("engine: %v is not executable where the tree has it", op.Kind)
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

// clones is how many clones join operator op runs when no input is shipped:
// its annotated degree capped at Parallel, or Parallel itself for a join the
// annotator never saw. Below 2 the join runs serial.
func (e *Executor) clones(op *optree.Op) int {
	if d := len(op.Clone.Resources); d > 0 {
		return min(d, e.Parallel)
	}
	return e.Parallel
}

// lowerJoin lowers the two inputs of join operator op — lin and rin, with
// the join's own Build, CreateIndex and Sort stripped — and joins them:
// crossOp without predicates; a cloned join through the transport when op
// runs more than one clone or ships an input; otherwise mergeJoinOp for a
// Merge — sorting the sides the tree sorts, on the column it sorts them by,
// plus any side whose sort the tree elided over a child that lost its order
// to cloning — and buildProbeOp for a Probe or PureNL (the hashed inner is
// the create-index inflection realized).
//
// Leaf-scan shipping: when Parallel allows cloning and a join's input is a
// base scan whose relation the transport owns at the workers, that input is
// not lowered at all — the fragment carries a ScanSpec and each worker
// sources its shard from its own store, so no base tuple of that side
// crosses the coordinator's links. Such a join runs one clone per owning
// worker, whatever its annotated degree: the placement decides where those
// rows are, and shard i of it is exactly stream partition i.
func (e *Executor) lowerJoin(op, lin, rin *optree.Op, lsort, rsort *query.ColumnRef) (Operator, Schema, bool, error) {
	var shipper exchange.ScanShipper
	if e.Parallel > 1 && len(op.Preds) > 0 {
		shipper, _ = e.Transport.(exchange.ScanShipper)
	}
	var ins [2]Operator
	var schemas [2]Schema
	var ordered [2]bool
	var specs [2]*exchange.ScanSpec
	parts := 0
	fail := func(err error) (Operator, Schema, bool, error) {
		for _, in := range ins {
			if in != nil {
				in.Close()
			}
		}
		return nil, nil, false, err
	}
	for i, in := range [2]*optree.Op{lin, rin} {
		if shipper != nil && (in.Kind == optree.Scan || in.Kind == optree.IndexScanOp) {
			if owners, ok := shipper.ShipScan(in.Relation); ok {
				tab, schema, sels, err := e.relation(in.Relation)
				if err != nil {
					return fail(err)
				}
				schemas[i], specs[i] = schema, &exchange.ScanSpec{Relation: in.Relation, Stats: tab.Rel.StatsDigest(), Filters: sels}
				if parts == 0 {
					parts = owners
				}
				continue
			}
		}
		var err error
		if ins[i], schemas[i], ordered[i], err = e.lower(in); err != nil {
			return fail(err)
		}
	}
	schema := append(append(Schema(nil), schemas[0]...), schemas[1]...)
	if len(op.Preds) == 0 {
		return e.record(op, &crossOp{left: ins[0], right: ins[1], bs: e.batchSize()}, 1), schema, ordered[0], nil
	}
	lkeys, rkeys, err := joinKeys(op.Preds, schemas[0], schemas[1])
	lcol, rcol := -1, -1
	if err == nil {
		lcol, err = sortCol(lsort, schemas[0])
	}
	if err == nil {
		rcol, err = sortCol(rsort, schemas[1])
	}
	if err != nil {
		return fail(err)
	}
	shipped := specs[0] != nil || specs[1] != nil
	if !shipped {
		parts = e.clones(op)
	}
	switch {
	case shipped || parts > 1:
		if specs[0] != nil {
			specs[0].HashCol = lkeys[0]
		}
		if specs[1] != nil {
			specs[1].HashCol = rkeys[0]
		}
		j, err := e.parallelJoin(op, ins[0], ins[1], lkeys, rkeys, specs[0], specs[1], parts)
		if err != nil {
			return nil, nil, false, err
		}
		return e.record(op, j, parts), schema, false, nil
	case op.Kind == optree.Merge:
		if lcol < 0 && !ordered[0] {
			lcol = lkeys[0]
		}
		if rcol < 0 && !ordered[1] {
			rcol = rkeys[0]
		}
		return e.record(op, &mergeJoinOp{left: ins[0], right: ins[1], lkeys: lkeys, rkeys: rkeys, lsort: lcol, rsort: rcol, bs: e.batchSize()}, 1), schema, true, nil
	default:
		return e.record(op, e.joinFor("nl", ins[0], ins[1], lkeys, rkeys), 1), schema, ordered[0], nil
	}
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
