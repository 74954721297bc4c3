package engine

import (
	"fmt"

	"paropt/internal/engine/exchange"
	"paropt/internal/optree"
	"paropt/internal/storage"
	"paropt/internal/vec"
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
// query's relations in declaration order with nested loops, keeping one row
// index per joined relation for every partial result: a candidate survives
// when its new row passes the relation's selections and every predicate
// whose two columns are both joined holds, each read off the table columns.
// The survivors are gathered into one dense batch, then projected.
func ReferenceJoin(e *Executor) (*Resultset, error) {
	var (
		schema Schema
		cols   [][]int64 // the joined relations' columns, in schema order
		owner  []int     // owner[c] is the position of column c's relation
		idx    [][]int32 // idx[k][t] is relation k's row in partial result t
	)
	n := 1 // the one empty partial result
	cur := make([]int32, len(e.Q.Relations))
	for j, rel := range e.Q.Relations {
		tab, relSchema, sels, err := e.relation(rel)
		if err != nil {
			return nil, err
		}
		tcols := tab.Columns()
		schema = append(schema, relSchema...)
		cols = append(cols, tcols...)
		for range tcols {
			owner = append(owner, j)
		}
		var preds [][2]int // both columns' schema positions
		for _, p := range e.Q.Joins {
			if l, r := schema.IndexOf(p.Left), schema.IndexOf(p.Right); l >= 0 && r >= 0 {
				preds = append(preds, [2]int{l, r})
			}
		}
		at := func(c int) int64 { return cols[c][cur[owner[c]]] }
		next := make([][]int32, j+1)
		for t := 0; t < n; t++ {
			for k := range j {
				cur[k] = idx[k][t]
			}
		rows:
			for r := range tab.NumRows() {
				for _, s := range sels {
					if tcols[s.Col][r] != s.Val {
						continue rows
					}
				}
				cur[j] = int32(r)
				for _, p := range preds {
					if at(p[0]) != at(p[1]) {
						continue rows
					}
				}
				for k := range next {
					next[k] = append(next[k], cur[k])
				}
			}
		}
		idx, n = next, len(next[j])
	}
	res := &Resultset{Schema: schema, n: n}
	if n > 0 {
		out := make([][]int64, len(cols))
		for c, col := range cols {
			out[c] = make([]int64, n)
			for t, r := range idx[owner[c]] {
				out[c][t] = col[r]
			}
		}
		res.batches = []Batch{&vec.Vec{Cols: out}}
	}
	if len(e.Q.Projection) > 0 {
		return res.Project(e.Q.Projection)
	}
	return res, nil
}
