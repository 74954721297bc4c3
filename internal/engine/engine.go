// Package engine executes the optimizer's annotated operator trees (§4.2)
// against in-memory tables with a vectorized Volcano engine: operators are
// pull iterators exchanging columnar batches (one []int64 per column plus a
// selection vector), scans alias table column slabs without copying, and
// joins run as tight kernels over contiguous memory. A join runs partitioned
// across as many clones as its annotation says, with hash redistribution
// between stages — the Gamma-style execution model the paper's operator
// trees describe: a cloned join hands its two input operators to the
// exchange transport, which pulls them, and is itself the operator the
// transport hands back. The engine exists both to run the plans the
// optimizer priced and to verify plan semantics: every plan for a query must
// produce the same result multiset.
package engine

import (
	"context"
	"fmt"
	"sort"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/query"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// Schema names the columns of a stream, in row order.
type Schema []query.ColumnRef

// IndexOf returns the position of the column, or -1.
func (s Schema) IndexOf(c query.ColumnRef) int {
	for i, x := range s {
		if x == c {
			return i
		}
	}
	return -1
}

// Batch is a unit of flow between operators: a columnar vector batch. It
// aliases the exchange package's batch so streams cross the transport layer
// without copying or transposition.
type Batch = exchange.Batch

// Operator is the pull iterator every engine operator implements and every
// stream edge is — the exchange package's, so operator trees cross the
// transport layer as they are.
type Operator = exchange.Operator

// DefaultBatchRows is the rows-per-batch granularity used when
// Executor.BatchSize is zero — what every plan execution runs at. The
// exchange and vec builders default to the same constant.
const DefaultBatchRows = vec.DefaultBatchRows

// Executor runs plans over a database.
type Executor struct {
	// DB holds the generated tables.
	DB *storage.Database
	// Q supplies selections and projection.
	Q *query.Query
	// Parallel caps the clone degree of every join: a join runs
	// min(annotated degree, Parallel) clones, and a join the annotator never
	// saw runs Parallel. Values < 2 mean serial execution.
	Parallel int
	// BatchSize tunes batch granularity in rows; 0 means DefaultBatchRows.
	// Only tests set it, to cut batches small.
	BatchSize int
	// Stats, when non-nil, records each node's runtime descriptor — actual
	// (tf, tl) and row counts — as the plan executes. Nil costs nothing.
	Stats *ExecStats
	// Transport runs the exchange (redistribution) of parallel joins. Nil
	// means the in-process channel transport; an exchange.Cluster sends the
	// partitioned streams to worker processes instead.
	Transport exchange.Transport
	// Ctx, when non-nil, bounds the execution: operators poll it between
	// batches (and every few thousand rows in tight kernels) and the run
	// unwinds with the context's cause.
	Ctx context.Context
}

// cancelCheckRows is how many rows a tight kernel processes between context
// polls — small enough that a cancel lands within microseconds, large
// enough that the poll stays off the profile.
const cancelCheckRows = 4096

// ctx returns the execution context, never nil.
func (e *Executor) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// ctxErr polls the context; non-nil is the cancellation cause.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// Resultset is a query result held the way the engine produced it: the
// dense column batches the root operator emitted, untransposed. Project,
// Normalize, Fingerprint and GroupBy work on the columns; Rows materializes
// row-major tuples for the callers that print or diff them.
type Resultset struct {
	Schema  Schema
	batches []Batch // dense (Sel == nil), one column per Schema entry
	n       int
	rows    []storage.Row // Rows' cache
}

// newRowResultset wraps row-major tuples (the reference oracle) as a result.
func newRowResultset(schema Schema, rows []storage.Row) *Resultset {
	r := &Resultset{Schema: schema, n: len(rows), rows: rows}
	if len(rows) > 0 {
		r.batches = []Batch{vec.FromRows(rows)}
	}
	return r
}

// Len is the number of result rows.
func (r *Resultset) Len() int { return r.n }

// Rows returns the result as row-major tuples, transposed on first use. The
// slice is shared between calls; callers that reorder it reorder the cache.
func (r *Resultset) Rows() []storage.Row {
	if r.rows == nil && r.n > 0 {
		rows := make([]storage.Row, 0, r.n)
		for _, b := range r.batches {
			rows = b.AppendRows(rows)
		}
		r.rows = rows
	}
	return r.rows
}

// result pulls the root operator to exhaustion, closes it, and returns what
// it produced, projected per the query's projection list when present. A
// result never releases its batches: they stay the caller's for as long as
// it holds the Resultset.
func (e *Executor) result(op Operator, schema Schema) (*Resultset, error) {
	defer op.Close()
	res := &Resultset{Schema: schema}
	err := drain(e.ctx(), op, func(b Batch) {
		res.batches = append(res.batches, b.Compact()) // only a bare filtered scan emits selections
		res.n += b.Len()
	})
	if err != nil {
		return nil, err
	}
	if len(e.Q.Projection) > 0 {
		return res.Project(e.Q.Projection)
	}
	return res, nil
}

// pick returns the result narrowed/reordered to the columns at the given
// positions, sharing column storage.
func (r *Resultset) pick(idx []int) *Resultset {
	out := &Resultset{Schema: make(Schema, len(idx)), batches: make([]Batch, len(r.batches)), n: r.n}
	for j, p := range idx {
		out.Schema[j] = r.Schema[p]
	}
	for i, b := range r.batches {
		cols := make([][]int64, len(idx))
		for j, p := range idx {
			cols[j] = b.Cols[p]
		}
		out.batches[i] = &vec.Vec{Cols: cols}
	}
	return out
}

// Project reorders/narrows the result to the given columns.
func (r *Resultset) Project(cols []query.ColumnRef) (*Resultset, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		pos := r.Schema.IndexOf(c)
		if pos < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in schema", c)
		}
		idx[i] = pos
	}
	return r.pick(idx), nil
}

// Normalize returns the result with columns reordered into a canonical
// (sorted by relation, column) schema, so results of different join orders
// compare equal.
func (r *Resultset) Normalize() *Resultset {
	order := make([]int, len(r.Schema))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := r.Schema[order[a]], r.Schema[order[b]]
		if ca.Relation != cb.Relation {
			return ca.Relation < cb.Relation
		}
		return ca.Column < cb.Column
	})
	return r.pick(order)
}

// Fingerprint is an order-independent multiset hash of the normalized rows:
// two plans for the same query must produce equal fingerprints. Each batch
// folds its columns, in normalized order, into one FNV-1a accumulator per
// row.
func (r *Resultset) Fingerprint() uint64 {
	var sum, xor uint64
	var acc []uint64
	for _, b := range r.Normalize().batches {
		n := b.Len()
		if cap(acc) < n {
			acc = make([]uint64, n)
		}
		acc = acc[:n]
		for i := range acc {
			acc[i] = 1469598103934665603
		}
		for _, col := range b.Cols {
			for i, v := range col {
				acc[i] = (acc[i] ^ uint64(v)) * 1099511628211
			}
		}
		for _, h := range acc {
			sum += h
			xor ^= h * 2654435761
		}
	}
	return sum ^ xor ^ uint64(r.n)<<32
}

func (e *Executor) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchRows
}

// relation resolves a base relation for a scan: its table, its schema (the
// relation's columns in declaration order) and the query's selections on it
// as column positions — pushed into the local scan or shipped to the workers.
func (e *Executor) relation(rel string) (*storage.Table, Schema, []exchange.ScanFilter, error) {
	tab, ok := e.DB.Table(rel)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: no data for relation %s", rel)
	}
	schema := make(Schema, len(tab.Rel.Columns))
	for i, c := range tab.Rel.Columns {
		schema[i] = query.ColumnRef{Relation: rel, Column: c.Name}
	}
	var sels []exchange.ScanFilter
	for _, s := range e.Q.SelectionsOn(rel) {
		pos := tab.ColIndex(s.Column.Column)
		if pos < 0 {
			return nil, nil, nil, fmt.Errorf("engine: selection on unknown column %v", s.Column)
		}
		sels = append(sels, exchange.ScanFilter{Col: pos, Val: s.Value})
	}
	return tab, schema, sels, nil
}

// scan builds the leaf iterator for a base table with the query's
// selections applied. Heap scans deliver zero-copy batch views of the
// table's columnar slabs, filters narrowing them to selection vectors; a
// scan through index ix gathers rows in key order.
func (e *Executor) scan(rel string, ix *catalog.Index) (Operator, Schema, error) {
	tab, schema, sels, err := e.relation(rel)
	if err != nil {
		return nil, nil, err
	}
	cols := tab.Columns()
	if ix != nil {
		if oix, err := storage.BuildOrderedIndex(tab, ix.Columns[0]); err == nil {
			order := make([]int32, 0, tab.NumRows())
			oix.Scan(func(_ int64, rowPos int) bool {
				order = append(order, int32(rowPos))
				return true
			})
			return &indexScanOp{cols: cols, order: order, sels: sels, bs: e.batchSize()}, schema, nil
		}
	}
	return &scanOp{cols: cols, nrows: tab.NumRows(), sels: sels, bs: e.batchSize()}, schema, nil
}

// scanOp is the vectorized heap scan: each Next is a window of the table's
// columnar slabs — no row copying — narrowed by the pushed-down selections
// to a selection vector. Empty windows (every row filtered out) are skipped
// so consumers only ever see live batches.
type scanOp struct {
	cols  [][]int64
	nrows int
	sels  []exchange.ScanFilter
	bs    int
	pos   int
}

func (o *scanOp) Next(ctx context.Context) (Batch, error) {
	for o.pos < o.nrows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		end := min(o.pos+o.bs, o.nrows)
		b := &vec.Vec{Cols: make([][]int64, len(o.cols))}
		for c := range o.cols {
			b.Cols[c] = o.cols[c][o.pos:end]
		}
		o.pos = end
		if b = filter(b, o.sels); b.Len() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (o *scanOp) Close() { o.pos = o.nrows }

// filter narrows a batch by the pushed-down selections, sharing its columns.
// Each filter's result takes over its input: the input is released once the
// narrower view holds its claim, so one Release of the result hands back
// every selection slab and the batch beneath.
func filter(b Batch, sels []exchange.ScanFilter) Batch {
	for _, s := range sels {
		if b.Len() == 0 {
			break
		}
		f := b.FilterEq(s.Col, s.Val)
		b.Release()
		b = f
	}
	return b
}

// indexScanOp delivers rows in index-key order: each Next gathers a window
// of the ordered index's row permutation into a dense batch (key order
// precludes slab views) and narrows it like the heap scan. Semantics equal
// the heap scan's; only order differs.
type indexScanOp struct {
	cols  [][]int64
	order []int32
	sels  []exchange.ScanFilter
	bs    int
	pos   int
	bld   *vec.Builder
}

func (o *indexScanOp) Next(ctx context.Context) (Batch, error) {
	if o.bld == nil {
		o.bld = vec.NewBuilder(len(o.cols), o.bs)
	}
	for o.pos < len(o.order) {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		end := min(o.pos+o.bs, len(o.order))
		o.bld.AppendGather(0, o.cols, o.order[o.pos:end])
		o.pos = end
		if b := filter(o.bld.Flush(), o.sels); b.Len() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (o *indexScanOp) Close() { o.pos = len(o.order); o.bld = nil }

// joinKeys resolves the key column positions of a join's predicates in the
// left and right input schemas.
func joinKeys(preds []query.JoinPredicate, lschema, rschema Schema) (lkeys, rkeys []int, err error) {
	for _, p := range preds {
		lp, rp := p.Left, p.Right
		if lschema.IndexOf(lp) < 0 {
			lp, rp = rp, lp
		}
		li, ri := lschema.IndexOf(lp), rschema.IndexOf(rp)
		if li < 0 || ri < 0 {
			return nil, nil, fmt.Errorf("engine: predicate %v does not span join inputs", p)
		}
		lkeys = append(lkeys, li)
		rkeys = append(rkeys, ri)
	}
	return lkeys, rkeys, nil
}

// joinFor constructs the serial join iterator for a wire method name over
// two child iterators; a merge sorts both sides on the first key. Unknown
// names fall back to nested loops — which, like the hash method, is a
// build-then-probe over a hashed inner (the create-index inflection
// realized); they differ only in cost model.
func (e *Executor) joinFor(method string, l, r Operator, lkeys, rkeys []int) Operator {
	if method == "merge" {
		return &mergeJoinOp{left: l, right: r, lkeys: lkeys, rkeys: rkeys, lsort: lkeys[0], rsort: rkeys[0], bs: e.batchSize()}
	}
	return &buildProbeOp{left: l, right: r, lkeys: lkeys, rkeys: rkeys, bs: e.batchSize()}
}

// keysFit checks join key positions against the width of the first batch of
// the input they index. Execute resolves its keys from schemas; a fragment
// brings them off a socket, and there a bad position is the sender's error,
// not a panic.
func keysFit(keys []int, width int) error {
	for _, k := range keys {
		if k < 0 || k >= width {
			return fmt.Errorf("engine: join key position %d in a %d-column input", k, width)
		}
	}
	return nil
}

// drain pulls op to exhaustion, handing every batch to take. Cancellation is
// re-checked between batches so a dying query stops collecting even when the
// child's own checkpoints are coarser.
func drain(ctx context.Context, op Operator, take func(Batch)) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		b, err := op.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		take(b)
	}
}

// drainBuffer pulls op to exhaustion into a columnar buffer (nil if the
// stream was empty): each batch is appended to the buffer's chunks and
// released as it arrives, so every row is copied once and no batch outlives
// its append. A failed drain hands back the chunks it took.
func drainBuffer(ctx context.Context, op Operator) (*vec.Buffer, error) {
	var buf *vec.Buffer
	err := drain(ctx, op, func(b Batch) {
		if buf == nil {
			buf = vec.NewBuffer(b.Width())
		}
		buf.Append(b)
		b.Release()
	})
	if err != nil {
		if buf != nil {
			buf.Release()
		}
		return nil, err
	}
	return buf, nil
}

// buildProbeOp is the blocking build-then-probe join (hash and nested-loops
// methods — the materialized edge of §4.2): the right input is drained into
// a columnar buffer indexed by a vec.HashTable built once over it, then each
// left batch probes it with one batch kernel call per output batch. Buffer,
// table and pair lists go back to their pools as soon as the left input
// ends — the last output batch holds copies — or at Close.
type buildProbeOp struct {
	left, right  Operator
	lkeys, rkeys []int
	bs           int

	built bool
	buf   *vec.Buffer // right rows, dense
	table *vec.HashTable
	bld   *vec.Builder
	lw    int
	cur   Batch           // in-progress left batch
	pc    vec.ProbeCursor // resume point within cur
	done  bool

	// Matched (left physical row, buffered right row) pairs of one kernel
	// call, gathered column-at-a-time into bld — the emit loop touches one
	// column array at a time. TakeSel slabs of bs entries: a call stops at
	// the builder's room.
	lsel, rsel []int32
}

func (o *buildProbeOp) build(ctx context.Context) error {
	buf, err := drainBuffer(ctx, o.right)
	if err != nil {
		return err
	}
	o.buf = buf
	o.built = true
	if buf == nil || buf.Len() == 0 {
		return nil
	}
	if err := keysFit(o.rkeys, buf.Width()); err != nil {
		return err
	}
	o.table = buf.Index(o.rkeys[0])
	o.lsel, o.rsel = vec.TakeSel(o.bs)[:0], vec.TakeSel(o.bs)[:0]
	return nil
}

// release hands the build state and pair lists back to their pools.
func (o *buildProbeOp) release() {
	if o.buf != nil {
		o.buf.Release()
	}
	if o.table != nil {
		o.table.Release()
	}
	vec.PutSel(o.lsel)
	vec.PutSel(o.rsel)
	o.lsel, o.rsel = nil, nil
}

// filterPairs keeps the (probe physical row, buffered row) pairs that also
// satisfy the predicates beyond the hash key, one predicate column pair at a
// time.
func filterPairs(lsel, rsel []int32, b Batch, buf *vec.Buffer, lkeys, rkeys []int) ([]int32, []int32) {
	for i := 1; i < len(lkeys); i++ {
		lcol, rcol := b.Cols[lkeys[i]], buf.Col(rkeys[i])
		n := 0
		for j, l := range lsel {
			if lcol[l] == rcol.At(rsel[j]) {
				lsel[n], rsel[n] = l, rsel[j]
				n++
			}
		}
		lsel, rsel = lsel[:n], rsel[:n]
	}
	return lsel, rsel
}

func (o *buildProbeOp) Next(ctx context.Context) (Batch, error) {
	if o.done {
		return nil, nil
	}
	if !o.built {
		if err := o.build(ctx); err != nil {
			return nil, err
		}
		if o.buf == nil || o.buf.Len() == 0 {
			o.done = true
			return nil, nil
		}
	}
	for {
		// Per-kernel checkpoint: every iteration does bounded work (one left
		// batch, at most one output batch), so checking here bounds how far a
		// cancelled query keeps emitting.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if o.cur == nil {
			b, err := o.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				o.done = true
				o.release()
				if o.bld != nil {
					return o.bld.Flush(), nil
				}
				return nil, nil
			}
			o.cur, o.pc = b, vec.ProbeCursor{}
			if o.bld == nil {
				o.lw = b.Width()
				if err := keysFit(o.lkeys, o.lw); err != nil {
					return nil, err
				}
				o.bld = vec.NewBuilder(o.lw+o.buf.Width(), o.bs)
			}
		}
		// The probe stops at the builder's room, so a batch is gathered into
		// exactly the slab it was allocated.
		var probed bool
		o.lsel, o.rsel, probed = o.table.ProbeBatch(o.cur.Cols[o.lkeys[0]], o.cur.Sel,
			o.buf.Col(o.rkeys[0]), &o.pc, o.bld.Room(), o.lsel[:0], o.rsel[:0])
		lsel, rsel := filterPairs(o.lsel, o.rsel, o.cur, o.buf, o.lkeys, o.rkeys)
		o.bld.AppendGather(0, o.cur.Cols, lsel)
		o.buf.Gather(o.bld, o.lw, rsel)
		if probed {
			o.cur.Release() // its last matches are gathered
			o.cur = nil
		}
		if o.bld.Full() {
			return o.bld.Flush(), nil
		}
	}
}

func (o *buildProbeOp) Close() {
	o.done = true
	o.release()
	o.left.Close()
	o.right.Close()
}

// mergeJoinOp materializes both inputs, sorts each side the tree put a sort
// on (by permuting row-index arrays over the columnar buffers, not by moving
// rows), then merges, joining duplicate runs pairwise and emitting
// incrementally.
type mergeJoinOp struct {
	left, right  Operator
	lkeys, rkeys []int
	// lsort and rsort are the column each side is sorted on before the merge.
	// A cloned merge sorts both sides on the key; a §4.2 operator tree
	// states its sorts, and a side it put none on (-1) is merged in arrival
	// order — re-sorting it would hide a Sort the expansion forgot — unless
	// a cloned join below scrambled the order the tree relied on.
	lsort, rsort int
	bs           int

	built          bool
	lbuf, rbuf     *vec.Buffer
	lorder, rorder vec.Column // sort orders: row indices
	bld            *vec.Builder
	lw             int
	i, j           int
	inRun          bool
	i2, j2         int // current equal-key run bounds
	a, b           int // positions within the run
	done           bool
	lsel, rsel     []int32 // joined (left row, right row) pairs awaiting emit: TakeSel slabs of bs entries
}

// build drains both sides; Close hands back what it buffered.
func (o *mergeJoinOp) build(ctx context.Context) error {
	var err error
	if o.lbuf, err = drainBuffer(ctx, o.left); err != nil {
		return err
	}
	if o.rbuf, err = drainBuffer(ctx, o.right); err != nil {
		return err
	}
	lbuf, rbuf := o.lbuf, o.rbuf
	o.built = true
	if lbuf == nil || rbuf == nil || lbuf.Len() == 0 || rbuf.Len() == 0 {
		o.done = true
		return nil
	}
	if err := keysFit(o.lkeys, lbuf.Width()); err != nil {
		return err
	}
	if err := keysFit(o.rkeys, rbuf.Width()); err != nil {
		return err
	}
	o.lorder = sortOrder(lbuf, o.lsort)
	o.rorder = sortOrder(rbuf, o.rsort)
	o.lw = lbuf.Width()
	o.bld = vec.NewBuilder(o.lw+rbuf.Width(), o.bs)
	o.lsel, o.rsel = vec.TakeSel(o.bs)[:0], vec.TakeSel(o.bs)[:0]
	return nil
}

// sortOrder is the buffer's row order stably sorted on column by: by key,
// then row, in pooled chunks that Close hands back; nil is arrival order
// (by < 0, or every key equal).
func sortOrder(buf *vec.Buffer, by int) vec.Column {
	if by < 0 {
		return nil
	}
	return buf.Col(by).SortOrder(buf.Len())
}

// rowAt is the row at position i of a sort order.
func rowAt(order vec.Column, i int) int32 {
	if order == nil {
		return int32(i)
	}
	return int32(order.At(int32(i)))
}

// matchBufPair checks extra predicates between buffered rows.
func matchBufPair(lbuf *vec.Buffer, l int, rbuf *vec.Buffer, r int, lkeys, rkeys []int) bool {
	for i := 1; i < len(lkeys); i++ {
		if lbuf.Value(lkeys[i], l) != rbuf.Value(rkeys[i], r) {
			return false
		}
	}
	return true
}

// emit gathers the pending pairs, column at a time, into one output batch
// (nil when none are pending).
func (o *mergeJoinOp) emit() Batch {
	o.lbuf.Gather(o.bld, 0, o.lsel)
	o.rbuf.Gather(o.bld, o.lw, o.rsel)
	o.lsel, o.rsel = o.lsel[:0], o.rsel[:0]
	return o.bld.Flush()
}

func (o *mergeJoinOp) Next(ctx context.Context) (Batch, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !o.built {
		if err := o.build(ctx); err != nil {
			return nil, err
		}
	}
	if o.done {
		return nil, nil
	}
	lcol := o.lbuf.Col(o.lkeys[0])
	rcol := o.rbuf.Col(o.rkeys[0])
	steps := 0
	for {
		if o.inRun {
			for ; o.a < o.i2; o.a++ {
				lrow := rowAt(o.lorder, o.a)
				for ; o.b < o.j2; o.b++ {
					if steps++; steps%cancelCheckRows == 0 {
						if err := ctxErr(ctx); err != nil {
							return nil, err
						}
					}
					rrow := rowAt(o.rorder, o.b)
					if matchBufPair(o.lbuf, int(lrow), o.rbuf, int(rrow), o.lkeys, o.rkeys) {
						o.lsel, o.rsel = append(o.lsel, lrow), append(o.rsel, rrow)
						if len(o.lsel) == o.bs {
							o.b++
							return o.emit(), nil
						}
					}
				}
				o.b = o.j
			}
			o.inRun = false
			o.i, o.j = o.i2, o.j2
		}
		if o.i >= o.lbuf.Len() || o.j >= o.rbuf.Len() {
			o.done = true
			return o.emit(), nil
		}
		lk, rk := lcol.At(rowAt(o.lorder, o.i)), rcol.At(rowAt(o.rorder, o.j))
		switch {
		case lk < rk:
			o.i++
		case lk > rk:
			o.j++
		default:
			o.i2 = o.i
			for o.i2 < o.lbuf.Len() && lcol.At(rowAt(o.lorder, o.i2)) == lk {
				o.i2++
			}
			o.j2 = o.j
			for o.j2 < o.rbuf.Len() && rcol.At(rowAt(o.rorder, o.j2)) == rk {
				o.j2++
			}
			o.a, o.b = o.i, o.j
			o.inRun = true
		}
		if steps++; steps%cancelCheckRows == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
	}
}

func (o *mergeJoinOp) Close() {
	o.done = true
	o.lorder.Release()
	o.rorder.Release()
	vec.PutSel(o.lsel)
	vec.PutSel(o.rsel)
	o.lorder, o.rorder, o.lsel, o.rsel = nil, nil, nil, nil
	if o.lbuf != nil {
		o.lbuf.Release()
	}
	if o.rbuf != nil {
		o.rbuf.Release()
	}
	o.left.Close()
	o.right.Close()
}

// crossOp joins without predicates: every outer row against the buffered
// inner, emitted as gathers — the outer row repeated over a run of
// consecutive inner rows, cut at the builder's room. Each Next emits at most
// one batch, so cancellation is polled at least that often.
type crossOp struct {
	left, right Operator
	bs          int

	inner      *vec.Buffer
	bld        *vec.Builder
	lw         int
	cur        Batch
	row, pos   int // next outer live row of cur, and the next inner row for it
	lsel, rsel []int32
	done       bool
}

func (o *crossOp) Next(ctx context.Context) (Batch, error) {
	if o.done {
		return nil, nil
	}
	if o.inner == nil {
		inner, err := drainBuffer(ctx, o.right)
		if err != nil {
			return nil, err
		}
		if inner == nil || inner.Len() == 0 {
			o.done = true
			return nil, nil
		}
		o.inner = inner
	}
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if o.cur == nil {
			b, err := o.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				o.done = true
				if o.bld != nil {
					return o.bld.Flush(), nil
				}
				return nil, nil
			}
			o.cur, o.row, o.pos = b, 0, 0
			if o.bld == nil {
				o.lw = b.Width()
				o.bld = vec.NewBuilder(o.lw+o.inner.Width(), o.bs)
			}
		}
		for o.row < o.cur.Len() {
			phys := int32(o.row)
			if o.cur.Sel != nil {
				phys = o.cur.Sel[o.row]
			}
			take := min(o.bld.Room(), o.inner.Len()-o.pos)
			o.lsel, o.rsel = o.lsel[:0], o.rsel[:0]
			for r := o.pos; r < o.pos+take; r++ {
				o.lsel, o.rsel = append(o.lsel, phys), append(o.rsel, int32(r))
			}
			o.bld.AppendGather(0, o.cur.Cols, o.lsel)
			o.inner.Gather(o.bld, o.lw, o.rsel)
			if o.pos += take; o.pos == o.inner.Len() {
				o.row, o.pos = o.row+1, 0
			}
			if o.bld.Full() {
				return o.bld.Flush(), nil
			}
		}
		o.cur = nil
	}
}

func (o *crossOp) Close() {
	o.done = true
	if o.inner != nil {
		o.inner.Release()
	}
	o.left.Close()
	o.right.Close()
}
