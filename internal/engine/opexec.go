package engine

import (
	"context"
	"fmt"
	"sort"

	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/storage"
)

// ExecuteOp runs a §4.2 operator tree directly — explicit sorts, merges,
// builds, probes, pure nested loops and create-index operators — rather
// than re-deriving physical operators from the join tree. This validates
// the macro expansion: for any plan p, ExecuteOp(Expand(p)) must produce
// exactly the same result multiset as Execute(p). Execution is serial (the
// parallel path lives in Execute); materialized edges are realized by
// draining the child before the parent consumes it, which is what the
// annotation means.
func (e *Executor) ExecuteOp(root *optree.Op) (*Resultset, error) {
	if root == nil {
		return nil, fmt.Errorf("engine: nil operator tree")
	}
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	rows, schema, err := e.runOp(root)
	if err != nil {
		return nil, err
	}
	res := newRowResultset(schema, rows)
	if len(e.Q.Projection) > 0 {
		return res.Project(e.Q.Projection)
	}
	return res, nil
}

// runOp evaluates one operator to a materialized row set. Operator trees
// execute synchronously here; the semantic content (which operator runs on
// which input) is what is being verified.
func (e *Executor) runOp(op *optree.Op) ([]storage.Row, Schema, error) {
	switch op.Kind {
	case optree.Scan, optree.IndexScanOp:
		return e.runBaseAccess(op)

	case optree.Sort:
		rows, schema, err := e.runOp(op.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		pos := schema.IndexOf(op.SortKey)
		if pos < 0 {
			return nil, nil, fmt.Errorf("engine: sort key %v not in schema", op.SortKey)
		}
		out := append([]storage.Row(nil), rows...)
		sort.SliceStable(out, func(a, b int) bool { return out[a][pos] < out[b][pos] })
		return out, schema, nil

	case optree.Build, optree.CreateIndex:
		// Materialization points: semantics are pass-through; the consumer
		// (probe / nested loops) builds its structure from the rows.
		return e.runOp(op.Inputs[0])

	case optree.Merge:
		return e.runMerge(op)

	case optree.Probe:
		return e.runProbe(op)

	case optree.PureNL:
		return e.runPureNL(op)

	default:
		return nil, nil, fmt.Errorf("engine: cannot execute operator %v", op.Kind)
	}
}

// runBaseAccess scans a base relation (heap or index order) with the
// query's selections applied, reusing the streaming scan.
func (e *Executor) runBaseAccess(op *optree.Op) ([]storage.Row, Schema, error) {
	leaf := op.Source
	if leaf == nil || !leaf.IsLeaf() {
		access := plan.SeqScan
		if op.Kind == optree.IndexScanOp {
			access = plan.IndexScan
		}
		leaf = &plan.Node{Relation: op.Relation, Access: access, Index: op.Index}
	}
	it, schema, err := e.scan(leaf)
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	rows, err := drainRows(e.ctx(), it)
	if err != nil {
		return nil, nil, err
	}
	return rows, schema, nil
}

// matchExtra checks row predicates beyond the first (the hash/merge key).
func matchExtra(l, r storage.Row, lkeys, rkeys []int) bool {
	for i := 1; i < len(lkeys); i++ {
		if l[lkeys[i]] != r[rkeys[i]] {
			return false
		}
	}
	return true
}

// drainRows materializes an operator's output as rows.
func drainRows(ctx context.Context, op Operator) ([]storage.Row, error) {
	batches, n, err := drain(ctx, op)
	if err != nil {
		return nil, err
	}
	rows := make([]storage.Row, 0, n)
	for _, b := range batches {
		rows = b.AppendRows(rows)
	}
	return rows, nil
}

// runMerge merge-joins its two (sorted) inputs on the first predicate.
func (e *Executor) runMerge(op *optree.Op) ([]storage.Row, Schema, error) {
	l, lschema, err := e.runOp(op.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	r, rschema, err := e.runOp(op.Inputs[1])
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema(nil), lschema...), rschema...)
	if len(op.Preds) == 0 {
		return crossRows(l, r), schema, nil
	}
	lkeys, rkeys, err := joinKeys(op.Preds, lschema, rschema)
	if err != nil {
		return nil, nil, err
	}
	// Inputs arrive sorted (explicit Sort ops or pre-sorted base data); a
	// defensive re-sort would mask expansion bugs, so merge directly.
	var out []storage.Row
	lk, rk := lkeys[0], rkeys[0]
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		switch {
		case l[i][lk] < r[j][rk]:
			i++
		case l[i][lk] > r[j][rk]:
			j++
		default:
			key := l[i][lk]
			i2, j2 := i, j
			for i2 < len(l) && l[i2][lk] == key {
				i2++
			}
			for j2 < len(r) && r[j2][rk] == key {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if matchExtra(l[a], r[b], lkeys, rkeys) {
						out = append(out, concatRows(l[a], r[b]))
					}
				}
			}
			i, j = i2, j2
		}
	}
	return out, schema, nil
}

// runProbe hash-joins: builds on Inputs[1] (the Build operator), probes
// with Inputs[0].
func (e *Executor) runProbe(op *optree.Op) ([]storage.Row, Schema, error) {
	l, lschema, err := e.runOp(op.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	r, rschema, err := e.runOp(op.Inputs[1])
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema(nil), lschema...), rschema...)
	if len(op.Preds) == 0 {
		return crossRows(l, r), schema, nil
	}
	lkeys, rkeys, err := joinKeys(op.Preds, lschema, rschema)
	if err != nil {
		return nil, nil, err
	}
	table := make(map[int64][]storage.Row, len(r))
	for _, row := range r {
		k := row[rkeys[0]]
		table[k] = append(table[k], row)
	}
	var out []storage.Row
	for _, lr := range l {
		for _, rr := range table[lr[lkeys[0]]] {
			if matchExtra(lr, rr, lkeys, rkeys) {
				out = append(out, concatRows(lr, rr))
			}
		}
	}
	return out, schema, nil
}

// runPureNL nested-loops: the inner (base access or create-index
// temporary) is probed per outer row through a hash index — the
// create-index inflection realized.
func (e *Executor) runPureNL(op *optree.Op) ([]storage.Row, Schema, error) {
	l, lschema, err := e.runOp(op.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	r, rschema, err := e.runOp(op.Inputs[1])
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema(nil), lschema...), rschema...)
	if len(op.Preds) == 0 {
		return crossRows(l, r), schema, nil
	}
	lkeys, rkeys, err := joinKeys(op.Preds, lschema, rschema)
	if err != nil {
		return nil, nil, err
	}
	index := make(map[int64][]storage.Row, len(r))
	for _, row := range r {
		index[row[rkeys[0]]] = append(index[row[rkeys[0]]], row)
	}
	var out []storage.Row
	for _, lr := range l {
		for _, rr := range index[lr[lkeys[0]]] {
			if matchExtra(lr, rr, lkeys, rkeys) {
				out = append(out, concatRows(lr, rr))
			}
		}
	}
	return out, schema, nil
}

func concatRows(l, r storage.Row) storage.Row {
	row := make(storage.Row, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

func crossRows(l, r []storage.Row) []storage.Row {
	out := make([]storage.Row, 0, len(l)*len(r))
	for _, lr := range l {
		for _, rr := range r {
			out = append(out, concatRows(lr, rr))
		}
	}
	return out
}
