// Package vec defines the columnar batch that flows between the engine's
// Volcano-style operators and across the exchange wire: one []int64 per
// column plus an optional selection vector. A Vec is the vectorized
// counterpart of a slice of rows — kernels touch whole columns at a time
// (filter produces a selection without moving data, scans alias table
// column slabs without copying) instead of walking tuple pointers, which is
// what turns the paper's pipelined composition `|` from a goroutine-per-row
// channel dance into tight loops over contiguous memory.
//
// Layout invariants:
//   - every column has the same physical length;
//   - Sel, when non-nil, lists the live physical row indices in increasing
//     order; nil means all physical rows are live (a dense Vec);
//   - a Vec is immutable once handed to a consumer — operators that narrow
//     a batch produce a new Vec sharing the column storage.
package vec

import (
	"paropt/internal/storage"
)

// DefaultBatchRows is the rows-per-batch granularity of builders, scans and
// the exchange when no batch size is configured.
const DefaultBatchRows = 1024

// Vec is a columnar batch: Cols[c][r] is column c of physical row r, and
// Sel (when non-nil) selects the live subset of physical rows.
type Vec struct {
	Cols [][]int64
	Sel  []int32
}

// Width is the number of columns.
func (v *Vec) Width() int { return len(v.Cols) }

// Len is the number of live rows.
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	if v.Sel != nil {
		return len(v.Sel)
	}
	if len(v.Cols) == 0 {
		return 0
	}
	return len(v.Cols[0])
}

// Bytes is the live payload size (8 bytes per value), the unit the
// exchange's staged-partition gauge and the engine's live byte counters
// meter.
func (v *Vec) Bytes() int64 {
	return int64(v.Len()) * int64(v.Width()) * 8
}

// emptySel marks a batch with zero live rows: Sel must stay non-nil when a
// filter rejects everything, because nil means "all physical rows live".
var emptySel = []int32{}

// FilterEq narrows the batch to live rows whose column col equals val,
// sharing column storage: only the selection vector is (re)built. The
// receiver is unchanged.
func (v *Vec) FilterEq(col int, val int64) *Vec {
	c := v.Cols[col]
	sel := emptySel
	if v.Sel != nil {
		for _, r := range v.Sel {
			if c[r] == val {
				sel = append(sel, r)
			}
		}
	} else {
		for r := range c {
			if c[r] == val {
				sel = append(sel, int32(r))
			}
		}
	}
	return &Vec{Cols: v.Cols, Sel: sel}
}

// Compact materializes the selection: the result is dense, with freshly
// allocated columns when a selection was applied. A dense Vec is returned
// as-is.
func (v *Vec) Compact() *Vec {
	if v.Sel == nil {
		return v
	}
	out := &Vec{Cols: make([][]int64, len(v.Cols))}
	for c, col := range v.Cols {
		dst := make([]int64, len(v.Sel))
		for i, r := range v.Sel {
			dst[i] = col[r]
		}
		out.Cols[c] = dst
	}
	return out
}

// FromRows transposes row-major tuples into a dense Vec. An empty slice
// yields a zero-width, zero-length Vec.
func FromRows(rows []storage.Row) *Vec {
	if len(rows) == 0 {
		return &Vec{}
	}
	width := len(rows[0])
	v := &Vec{Cols: make([][]int64, width)}
	for c := range v.Cols {
		col := make([]int64, len(rows))
		for r, row := range rows {
			col[r] = row[c]
		}
		v.Cols[c] = col
	}
	return v
}

// AppendRows materializes the live rows onto dst in row-major form — the
// boundary back to the row world (Resultset.Rows, reference oracles). The
// rows of one call share one backing array, filled column at a time.
func (v *Vec) AppendRows(dst []storage.Row) []storage.Row {
	n, w := v.Len(), v.Width()
	slab := make([]int64, n*w)
	for c, col := range v.Cols {
		if v.Sel == nil {
			for i, x := range col {
				slab[i*w+c] = x
			}
		} else {
			for i, r := range v.Sel {
				slab[i*w+c] = col[r]
			}
		}
	}
	for i := 0; i < n; i++ {
		dst = append(dst, slab[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// Window is the zero-copy view of live rows [lo, hi): a dense Vec windows
// its columns, a selected one keeps them and windows the selection. Scans of
// a cached shard cut their batches this way — no value moves until a join
// buffers or the wire encodes it.
func (v *Vec) Window(lo, hi int) *Vec {
	if v.Sel != nil {
		return &Vec{Cols: v.Cols, Sel: v.Sel[lo:hi]}
	}
	w := &Vec{Cols: make([][]int64, len(v.Cols))}
	for c, col := range v.Cols {
		w.Cols[c] = col[lo:hi]
	}
	return w
}

// Builder assembles an output Vec — the emit side of join and projection
// kernels. Flushing hands off the accumulated columns and resets, so one
// Builder serves a whole stream of batches. Each batch's columns are slices
// of one slab, allocated when the batch receives its first row.
type Builder struct {
	cols [][]int64
	bs   int
}

// NewBuilder sizes a builder for batches of bs rows and the given width.
func NewBuilder(width, bs int) *Builder {
	if bs <= 0 {
		bs = DefaultBatchRows
	}
	return &Builder{cols: make([][]int64, width), bs: bs}
}

// reserve allocates the batch's slab before its first row. Columns are
// capacity-capped at bs so an append past a full batch reallocates that
// column instead of running into its neighbour.
func (b *Builder) reserve() {
	if len(b.cols) == 0 || cap(b.cols[0]) > 0 {
		return
	}
	slab := make([]int64, len(b.cols)*b.bs)
	for c := range b.cols {
		b.cols[c] = slab[c*b.bs : c*b.bs : (c+1)*b.bs]
	}
}

// Len is the number of rows accumulated since the last Flush.
func (b *Builder) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// Full reports whether the builder reached its batch size.
func (b *Builder) Full() bool { return b.Len() >= b.bs }

// Room is how many more rows fit before the builder is full — the limit
// batch kernels stop at so a batch never outgrows its slab.
func (b *Builder) Room() int { return b.bs - b.Len() }

// AppendGather appends cols[c][idx[i]] for every i to output column at+c —
// the columnar emit of the join and scatter kernels. Callers accumulate
// matched row indices and gather once per batch, turning one multi-column
// copy per output row into one tight loop per column.
func (b *Builder) AppendGather(at int, cols [][]int64, idx []int32) {
	if len(idx) == 0 {
		return
	}
	b.reserve()
	for c, col := range cols {
		dst := b.cols[at+c]
		for _, r := range idx {
			dst = append(dst, col[r])
		}
		b.cols[at+c] = dst
	}
}

// View is the accumulated batch as a dense Vec still backed by the builder,
// valid until Reset. A consumer that copies the rows out at once (the wire
// encoder) pairs the two, so a stream of batches reuses one slab.
func (b *Builder) View() *Vec { return &Vec{Cols: b.cols} }

// Reset empties the builder, keeping its slab.
func (b *Builder) Reset() {
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
}

// Flush returns the accumulated batch as a dense Vec and resets the
// builder; nil when nothing accumulated.
func (b *Builder) Flush() *Vec {
	if b.Len() == 0 {
		return nil
	}
	v := &Vec{Cols: b.cols}
	b.cols = make([][]int64, len(b.cols))
	return v
}

// Buffer is a growable columnar row store: the build side of joins and the
// rewind buffer of re-iterated inputs. Appending compacts selections; rows
// are addressed by dense index. The columns share one slab that doubles when
// it fills; Grow sizes it exactly when the row count is known up front.
type Buffer struct {
	cols [][]int64
}

// NewBuffer creates a buffer of the given width.
func NewBuffer(width int) *Buffer {
	return &Buffer{cols: make([][]int64, width)}
}

// Len is the number of buffered rows.
func (t *Buffer) Len() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// Width is the number of columns.
func (t *Buffer) Width() int { return len(t.cols) }

// Col exposes column c's storage (read-only by convention).
func (t *Buffer) Col(c int) []int64 { return t.cols[c] }

// Value returns column c of buffered row r.
func (t *Buffer) Value(c, r int) int64 { return t.cols[c][r] }

// Grow makes room for n more rows: a buffer that already has it is left
// alone, an empty one is sized to exactly n, and a filled one moves to a slab
// of at least twice its capacity — so a drained stream is copied at most
// twice however many batches it arrived in.
func (t *Buffer) Grow(n int) {
	if len(t.cols) == 0 {
		return
	}
	have, need := t.Len(), t.Len()+n
	if need <= cap(t.cols[0]) {
		return
	}
	if c := 2 * cap(t.cols[0]); need < c {
		need = c
	}
	slab := make([]int64, len(t.cols)*need)
	for c, col := range t.cols {
		t.cols[c] = slab[c*need : c*need+have : (c+1)*need]
		copy(t.cols[c], col)
	}
}

// Append copies the live rows of v into the buffer and returns the index
// of the first appended row.
func (t *Buffer) Append(v *Vec) int {
	start := t.Len()
	t.Grow(v.Len())
	for c := range t.cols {
		col := v.Cols[c]
		if v.Sel == nil {
			t.cols[c] = append(t.cols[c], col...)
		} else {
			dst := t.cols[c]
			for _, r := range v.Sel {
				dst = append(dst, col[r])
			}
			t.cols[c] = dst
		}
	}
	return start
}

// Gather appends the buffered rows at the given indices to b starting at
// output column at, column at a time.
func (t *Buffer) Gather(b *Builder, at int, idx []int32) {
	b.AppendGather(at, t.cols, idx)
}

// Release drops the column storage, returning the buffer to zero length
// while keeping its width — a join frees its buffered input this way on
// Close.
func (t *Buffer) Release() {
	for c := range t.cols {
		t.cols[c] = nil
	}
}
