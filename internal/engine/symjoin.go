package engine

import (
	"context"

	"paropt/internal/vec"
)

// symJoinOp is the symmetric (pipelining) hash join: both inputs stream, each
// side maintaining its own columnar buffer and vec.HashTable. Every arriving
// batch is inserted into its own side's table and probed, whole, against the
// opposite side's — a pair is emitted by whichever of its rows arrives later,
// so each matching pair is produced exactly once and the first output row
// appears without a blocking build phase. When one input is exhausted, the
// other side's table and buffer are freed on the spot: the exhausted side
// sends no more probes, so nothing can ever hit them again.
type symJoinOp struct {
	bs int
	l  symSide
	r  symSide

	bld *vec.Builder
	lw  int // left width, fixed at first possible match

	// in-progress probe batch, saved across Next calls when the builder fills
	// mid-batch.
	cur        Batch
	pc         vec.ProbeCursor
	fromLeft   bool // which side cur was pulled from
	turn       bool // next side to pull: false = left
	done       bool
	psel, bsel []int32 // matched (cur physical row, opposite buffered row) pairs
}

// symSide is one input's streaming state.
type symSide struct {
	src   Operator
	keys  []int
	buf   *vec.Buffer
	ht    *vec.HashTable
	width int
	done  bool
	freed bool // opposite side exhausted: stop buffering, table released
}

func newSymJoinOp(e *Executor, l, r Operator, lkeys, rkeys []int) *symJoinOp {
	return &symJoinOp{
		bs: e.batchSize(),
		l:  symSide{src: l, keys: lkeys},
		r:  symSide{src: r, keys: rkeys},
	}
}

func (o *symJoinOp) Next(ctx context.Context) (Batch, error) {
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if o.done {
			if o.bld != nil {
				return o.bld.Flush(), nil
			}
			return nil, nil
		}
		if o.cur != nil {
			if out := o.probe(); out != nil {
				return out, nil
			}
			continue
		}
		if o.l.done && o.r.done {
			o.done = true
			continue
		}
		// Alternate pulls between live sides so neither input's buffer grows
		// unboundedly ahead of the other on balanced streams.
		own, opp := &o.l, &o.r
		if o.turn && !o.r.done || o.l.done {
			own, opp = opp, own
		}
		o.turn = !o.turn
		b, err := own.src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			own.done = true
			// The exhausted side sends no more probes, so the opposite
			// side's table and buffer can never be hit again: free them and
			// stop buffering its remaining rows.
			opp.free()
			continue
		}
		if b.Len() == 0 {
			continue
		}
		if own.width == 0 {
			own.width = b.Width()
			if err := keysFit(own.keys, own.width); err != nil {
				return nil, err
			}
		}
		if !own.freed {
			if own.buf == nil {
				own.buf = vec.NewBuffer(own.width)
				own.ht = vec.NewHashTable()
			}
			own.buf.Append(b)
			own.ht.InsertBatch(b.Cols[own.keys[0]], b.Sel)
		}
		if opp.ht != nil && opp.ht.Len() > 0 {
			o.cur, o.pc, o.fromLeft = b, vec.ProbeCursor{}, own == &o.l
		}
	}
}

// free releases a side's probe structures once no future probe can reach
// them, capping the join's memory at the first input's exhaustion point.
func (s *symSide) free() {
	if s.freed {
		return
	}
	s.freed = true
	if s.buf != nil {
		s.buf.Release()
	}
	if s.ht != nil {
		s.ht.Release()
	}
	s.buf, s.ht = nil, nil
}

// probe runs the in-progress batch against the opposite side's table for at
// most one output batch's worth of pairs and gathers them, left columns
// first. It returns a batch when the builder fills; nil otherwise, with cur
// cleared once the batch is fully probed.
func (o *symJoinOp) probe() Batch {
	own, opp := &o.l, &o.r
	if !o.fromLeft {
		own, opp = opp, own
	}
	if o.bld == nil {
		// Both widths are known at the first possible match: the opposite
		// buffer is non-empty and cur fixes this side's.
		o.lw = o.l.width
		o.bld = vec.NewBuilder(o.lw+o.r.width, o.bs)
	}
	var probed bool
	o.psel, o.bsel, probed = opp.ht.ProbeBatch(o.cur.Cols[own.keys[0]], o.cur.Sel,
		opp.buf.Col(opp.keys[0]), &o.pc, o.bld.Room(), o.psel[:0], o.bsel[:0])
	psel, bsel := filterPairs(o.psel, o.bsel, o.cur, opp.buf, own.keys, opp.keys)
	if o.fromLeft {
		o.bld.AppendGather(0, o.cur.Cols, psel)
		opp.buf.Gather(o.bld, o.lw, bsel)
	} else {
		opp.buf.Gather(o.bld, 0, bsel)
		o.bld.AppendGather(o.lw, o.cur.Cols, psel)
	}
	if probed {
		o.cur = nil
	}
	if o.bld.Full() {
		return o.bld.Flush()
	}
	return nil
}

func (o *symJoinOp) Close() {
	o.done = true
	o.cur = nil
	o.l.free()
	o.r.free()
	o.l.src.Close()
	o.r.src.Close()
}
