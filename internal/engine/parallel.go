package engine

import (
	"fmt"

	"paropt/internal/engine/exchange"
	"paropt/internal/optree"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// parallelJoin is the cloned (intra-operator parallel) join of §4.1: both
// inputs are hash-redistributed on the join key across parts partitions (the
// exchange / data-redistribution annotation of §4.2), each partition pair is
// joined with the serial algorithm, and the partition outputs are merged.
// Equal keys land in equal partitions, so the union of the partition joins is
// exactly the serial join. The redistribution runs on e.Transport —
// goroutines of this process by default, worker processes over TCP with an
// exchange.Cluster. The transport takes the two input operators as they are
// and pulls them from the goroutines that scatter them; what it returns is
// the join's operator, whose Next yields the merged result batches — and the
// join's failure, whichever side of it failed — and whose Close tears the
// whole join down. lspec/rspec, when set, mark inputs the transport sources
// at the workers (leaf-scan shipping): that side's operator is nil.
func (e *Executor) parallelJoin(op *optree.Op, lop, rop Operator, lkeys, rkeys []int, lspec, rspec *exchange.ScanSpec, parts int) (Operator, error) {
	method := "hash"
	switch op.Kind {
	case optree.Merge:
		method = "merge"
	case optree.PureNL:
		method = "nl"
	}
	frag := exchange.Fragment{
		Method:    method,
		LKeys:     lkeys,
		RKeys:     rkeys,
		Parts:     parts,
		BatchSize: e.batchSize(),
		LeftScan:  lspec,
		RightScan: rspec,
	}
	tr := e.Transport
	if tr == nil {
		tr = &exchange.Local{Fn: FragmentJoin}
	}
	j, err := tr.Join(e.ctx(), frag, lop, rop)
	if err != nil {
		return nil, err
	}
	// Cluster joins collect the workers' own measurements; the exec stats read
	// them after the run, so EXPLAIN ANALYZE and the trace merge can see across
	// the wire. Local joins don't implement it.
	if sr, ok := j.(exchange.StatsReporter); ok && e.Stats != nil && op.Source != nil {
		e.Stats.addRemote(op.Source, e.nodeLabel(op.Source), sr)
	}
	return j, nil
}

// FragmentJoin is the engine's JoinFunc for the exchange layer: it builds
// the serial join named by the fragment over one partition pair. Workers
// (cmd/paroptw) and the in-process Local transport both execute fragments
// through it, so single-process and distributed runs share one join
// implementation. A worker's fragment comes off a socket, so it is validated
// here and the join operators check its key positions against the first batch
// they see.
func FragmentJoin(frag exchange.Fragment, left, right Operator) (Operator, error) {
	if err := frag.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{BatchSize: frag.BatchSize}
	return e.joinFor(frag.Method, left, right, frag.LKeys, frag.RKeys), nil
}

// PartitionImbalance hash-partitions a table's column into parts buckets
// and returns max/mean bucket size — 1.0 for perfectly balanced
// partitioning, growing with key skew. It quantifies the paper's §5.2.1
// caveat that the uniformity assumption "loses some ability to model hot
// spots": a cloned join's slowest clone is the hot partition, so real
// speedup degrades by roughly this factor while the cost model predicts an
// even split.
func PartitionImbalance(t *storage.Table, column string, parts int) (float64, error) {
	pos := t.ColIndex(column)
	if pos < 0 {
		return 0, fmt.Errorf("engine: table %s has no column %s", t.Rel.Name, column)
	}
	if parts < 1 {
		parts = 1
	}
	sizes := make([]int, parts)
	for _, v := range t.Columns()[pos] {
		sizes[exchange.Partition(v, parts)]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if t.NumRows() == 0 {
		return 1, nil
	}
	mean := float64(t.NumRows()) / float64(parts)
	return float64(max) / mean, nil
}

// ReferenceJoin computes the query result by brute-force evaluation over
// the database — the oracle the engine is tested against. It joins the
// query's relations in declaration order with nested loops over all
// predicates and applies selections and projection.
func ReferenceJoin(e *Executor) (*Resultset, error) {
	rels := e.Q.Relations
	var schema Schema
	rows := []storage.Row{{}}
	for _, rel := range rels {
		tab, ok := e.DB.Relation(rel)
		if !ok {
			return nil, fmt.Errorf("engine: no data for relation %s", rel)
		}
		cols := tab.Columns()
		var relSchema Schema
		for _, c := range tab.Rel.Columns {
			relSchema = append(relSchema, query.ColumnRef{Relation: rel, Column: c.Name})
		}
		sels := e.Q.SelectionsOn(rel)
		newSchema := append(append(Schema(nil), schema...), relSchema...)
		var next []storage.Row
		for _, acc := range rows {
			for r := range tab.NumRows() {
				keepSel := true
				for _, s := range sels {
					if cols[tab.ColIndex(s.Column.Column)][r] != s.Value {
						keepSel = false
						break
					}
				}
				if !keepSel {
					continue
				}
				joined := make(storage.Row, 0, len(acc)+len(cols))
				joined = append(joined, acc...)
				for _, col := range cols {
					joined = append(joined, col[r])
				}
				if satisfiesAll(e, newSchema, joined) {
					next = append(next, joined)
				}
			}
		}
		rows = next
		schema = newSchema
	}
	res := newRowResultset(schema, rows)
	if len(e.Q.Projection) > 0 {
		return res.Project(e.Q.Projection)
	}
	return res, nil
}

// satisfiesAll checks every join predicate whose columns are both present.
func satisfiesAll(e *Executor, schema Schema, row storage.Row) bool {
	for _, p := range e.Q.Joins {
		li := schema.IndexOf(p.Left)
		ri := schema.IndexOf(p.Right)
		if li < 0 || ri < 0 {
			continue
		}
		if row[li] != row[ri] {
			return false
		}
	}
	return true
}
