package engine

import (
	"context"
	"fmt"

	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// parallelJoin is the cloned (intra-operator parallel) join of §4.1: both
// inputs are hash-redistributed on the join key across Parallel partitions
// (the exchange / data-redistribution annotation of §4.2), each partition
// pair is joined with the serial algorithm, and the partition outputs are
// merged. Equal keys land in equal partitions, so the union of the partition
// joins is exactly the serial join. The redistribution runs on
// e.Transport — in-process channels by default, worker processes over TCP
// with an exchange.Cluster. The input iterators are pumped into the
// transport's channels by per-side goroutines; the returned operator pulls
// merged result batches back out.
//
// lspec/rspec, when set, mark inputs the transport sources at the workers
// (leaf-scan shipping): that side's operator is nil and parts overrides the
// cloning degree with the relation's owning-worker count, so shard i of the
// placement is exactly stream partition i.
func (e *Executor) parallelJoin(n *plan.Node, lop, rop Operator, lkeys, rkeys []int, lspec, rspec *exchange.ScanSpec, parts int) Operator {
	if parts <= 0 {
		parts = e.Parallel
	}
	frag := exchange.Fragment{
		Method:    e.wireMethod(n.Method),
		LKeys:     lkeys,
		RKeys:     rkeys,
		Parts:     parts,
		BatchSize: e.batchSize(),
		LeftScan:  lspec,
		RightScan: rspec,
	}
	tr := e.Transport
	if tr == nil {
		// Local fragments inherit the executor's context so a cancelled run
		// unwinds inside the partition joins too, not only at the stream
		// edges.
		tr = &exchange.Local{Fn: func(f exchange.Fragment, l, r <-chan exchange.Batch, emit func(exchange.Batch) error) error {
			fe := &Executor{BatchSize: f.BatchSize, Ctx: e.Ctx}
			return fe.fragmentJoin(f, l, r, emit)
		}}
	}
	j, err := tr.Join(frag, e.pump(lop), e.pump(rop))
	if err != nil {
		e.fail(err)
		if j != nil {
			return &exchangeOp{e: e, n: n, j: j}
		}
		return &errOp{err: err}
	}
	return &exchangeOp{e: e, n: n, j: j}
}

// pump drives an input operator on its own goroutine, feeding its batches
// into a channel for the transport — the iterator-to-stream edge of the
// exchange. A nil operator (a shipped scan) yields a nil channel; errors
// land in the executor's async slot. Transports consume their inputs to
// exhaustion even on failure, so the pump never leaks.
func (e *Executor) pump(op Operator) <-chan Batch {
	if op == nil {
		return nil
	}
	ch := make(chan Batch, 4)
	go func() {
		defer close(ch)
		defer op.Close()
		ctx := e.ctx()
		for {
			b, err := op.Next(ctx)
			if err != nil {
				e.fail(err)
				return
			}
			if b == nil {
				return
			}
			ch <- b
		}
	}()
	return ch
}

// errOp is an operator that failed at build time: Next reports the error.
type errOp struct{ err error }

func (o *errOp) Next(context.Context) (Batch, error) { return nil, o.err }
func (o *errOp) Close()                              {}

// exchangeOp is the stream-to-iterator edge over an in-flight distributed
// join: Next pulls merged result batches from the transport, surfacing the
// join's first error at exhaustion and folding worker-side measurements
// into the exec stats.
type exchangeOp struct {
	e    *Executor
	n    *plan.Node
	j    exchange.Join
	done bool
}

func (o *exchangeOp) Next(ctx context.Context) (Batch, error) {
	if o.done {
		return nil, nil
	}
	if err := ctxErr(ctx); err != nil {
		o.Close()
		return nil, err
	}
	b, ok := <-o.j.Out()
	if !ok {
		o.done = true
		if err := o.j.Err(); err != nil {
			return nil, err
		}
		// Cluster joins report the workers' own measurements once drained;
		// fold them into the exec stats so EXPLAIN ANALYZE and the trace
		// merge can see across the wire. Local joins don't implement it.
		if o.e.Stats != nil {
			if sr, ok := o.j.(exchange.StatsReporter); ok {
				o.e.Stats.addRemote(o.n, o.e.nodeLabel(o.n), sr.FragmentStats())
			}
		}
		return nil, nil
	}
	return b, nil
}

// Close drains the remaining result batches on a helper goroutine so
// partition workers blocked on sends always unwind, even when the consumer
// abandoned the stream mid-join.
func (o *exchangeOp) Close() {
	if o.done {
		return
	}
	o.done = true
	out := o.j.Out()
	go func() {
		for range out {
		}
	}()
}

// FragmentJoin is the engine's JoinFunc for the exchange layer: it runs the
// serial join named by the fragment over one partition pair. Workers
// (cmd/paroptw) and the in-process Local transport both execute fragments
// through it, so single-process and distributed runs share one join
// implementation.
func FragmentJoin(frag exchange.Fragment, left, right <-chan exchange.Batch, emit func(exchange.Batch) error) error {
	e := &Executor{BatchSize: frag.BatchSize}
	return e.fragmentJoin(frag, left, right, emit)
}

// fragmentJoin runs one partition pair through the serial join on this
// executor: the input channels are wrapped as iterators, joined by the
// fragment's method, and the output pulled into emit. When e.Ctx is set
// (the Local transport's in-process fragments) a cancelled context unwinds
// the join and surfaces the cause. The inputs are always consumed to
// exhaustion — on error or cancellation by draining — so upstream producers
// never block.
func (e *Executor) fragmentJoin(frag exchange.Fragment, left, right <-chan exchange.Batch, emit func(exchange.Batch) error) error {
	op := e.joinFor(frag.Method, &chanOp{ch: left}, &chanOp{ch: right}, frag.LKeys, frag.RKeys)
	defer op.Close()
	ctx := e.ctx()
	for {
		b, err := op.Next(ctx)
		if err != nil {
			e.fail(err)
			break
		}
		if b == nil {
			break
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return e.asyncErr()
}

// chanOp adapts a transport input channel to the iterator interface —
// the stream-to-iterator edge on the consuming side of an exchange. Close
// drains the channel so the sender (wire demultiplexer or local partition
// goroutine) never blocks after an abandoned join.
type chanOp struct {
	ch <-chan Batch
}

func (o *chanOp) Next(ctx context.Context) (Batch, error) {
	if o.ch == nil {
		return nil, nil
	}
	select {
	case b, ok := <-o.ch:
		if !ok {
			return nil, nil
		}
		return b, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (o *chanOp) Close() {
	if o.ch == nil {
		return
	}
	for range o.ch {
	}
}

// wireMethod names a join method for fragment dispatch. Hash joins dispatch
// as the symmetric streaming variant when the executor asks for it — the
// name selects the worker-side join construction, so distributed symmetric
// joins need no new frame types.
func (e *Executor) wireMethod(m plan.JoinMethod) string {
	switch m {
	case plan.HashJoin:
		if e.Symmetric {
			return "sym"
		}
		return "hash"
	case plan.SortMerge:
		return "merge"
	default:
		return "nl"
	}
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
	for _, row := range t.Rows {
		sizes[exchange.Partition(row[pos], parts)]++
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

// ExecuteParallelDegrees is a convenience for experiments: run the same
// plan at several degrees and return the results, which callers typically
// fingerprint-compare and time.
func (e *Executor) ExecuteParallelDegrees(n *plan.Node, degrees []int) ([]*Resultset, error) {
	saved := e.Parallel
	defer func() { e.Parallel = saved }()
	out := make([]*Resultset, 0, len(degrees))
	for _, d := range degrees {
		e.Parallel = d
		res, err := e.Execute(n)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
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
		tab, ok := e.DB.Table(rel)
		if !ok {
			return nil, fmt.Errorf("engine: no data for relation %s", rel)
		}
		var relSchema Schema
		for _, c := range tab.Rel.Columns {
			relSchema = append(relSchema, query.ColumnRef{Relation: rel, Column: c.Name})
		}
		sels := e.Q.SelectionsOn(rel)
		newSchema := append(append(Schema(nil), schema...), relSchema...)
		var next []storage.Row
		for _, acc := range rows {
			for _, row := range tab.Rows {
				keepSel := true
				for _, s := range sels {
					if row[tab.ColIndex(s.Column.Column)] != s.Value {
						keepSel = false
						break
					}
				}
				if !keepSel {
					continue
				}
				joined := make(storage.Row, 0, len(acc)+len(row))
				joined = append(joined, acc...)
				joined = append(joined, row...)
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
