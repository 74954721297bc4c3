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
//
// Ownership: a batch whose columns are pooled chunks (a Builder's at
// DefaultBatchRows rows per batch, a full-sized one from Make) carries a
// claim count. The batch holds one claim, the views Views cuts from it hold
// one between them, Release drops one, and the last hands the chunks back to
// the pool. A consumer releases a batch only once it has copied out
// everything it reads; a batch nobody releases is left to the garbage
// collector. A join's build state — a Buffer's columns, a HashTable's entries —
// lives in the same chunks and goes back on the owner's Release.
package vec

import (
	"sync"
	"sync/atomic"

	"paropt/internal/storage"
)

// DefaultBatchRows is the rows-per-batch granularity of builders, scans and
// the exchange when no batch size is configured — one chunk per column.
const DefaultBatchRows = 1 << chunkBits

// chunkBits and chunkMask address value r of chunked storage (a Buffer's
// columns, a HashTable's entries) at chunk r>>chunkBits, slot r&chunkMask.
const (
	chunkBits = 10
	chunkMask = 1<<chunkBits - 1
)

// Vec is a columnar batch: Cols[c][r] is column c of physical row r, and
// Sel (when non-nil) selects the live subset of physical rows.
type Vec struct {
	Cols   [][]int64
	Sel    []int32
	claims *claims // nil unless something is handed back on the last Release
}

// chunk is 8 KiB of pooled storage: one column of a DefaultBatchRows-row
// batch, a Buffer column's DefaultBatchRows rows, or as many HashTable entries.
type chunk [DefaultBatchRows]int64

// chunkPool recycles chunks. A chunk comes back holding its last owner's
// values: whoever takes one writes every value it exposes before any read.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// selChunk is a pooled selection slab for a batch of up to DefaultBatchRows
// rows; selPool recycles them under the same write-before-read rule.
type selChunk [DefaultBatchRows]int32

var selPool = sync.Pool{New: func() any { return new(selChunk) }}

// TakeSel returns an n-entry selection slab whose every entry the caller
// writes before any read: a pooled chunk's for a batch of at most
// DefaultBatchRows rows, else a fresh one. PutSel, or the last Release of the
// Views cut from it, hands it back.
func TakeSel(n int) []int32 {
	if n > DefaultBatchRows {
		return make([]int32, n)
	}
	return selPool.Get().(*selChunk)[:n]
}

// PutSel hands back a TakeSel slab nothing reads any more; a slab not cut
// from a chunk is left to the collector.
func PutSel(s []int32) {
	if cap(s) == DefaultBatchRows {
		selPool.Put((*selChunk)(s[:DefaultBatchRows]))
	}
}

// claims is the shared claim count of one pooled batch, or of the views
// Views cut from one batch: the last claim dropped hands back the chunks and
// the selection slab, and drops the views' claim on their batch.
type claims struct {
	n      atomic.Int32
	chunks []*chunk
	sel    []int32
	parent *claims
}

func (c *claims) drop() {
	if c.n.Add(-1) != 0 {
		return
	}
	for _, ch := range c.chunks {
		chunkPool.Put(ch)
	}
	if c.sel != nil {
		PutSel(c.sel)
	}
	if c.parent != nil {
		c.parent.drop()
	}
}

// pooled is a pooled batch with its claim count, in one allocation.
type pooled struct {
	v Vec
	c claims
}

// takeChunks fills cols[c] with a fresh chunk per column, rows long and
// capped at capacity, and returns the chunks.
func takeChunks(cols [][]int64, rows, capacity int) []*chunk {
	chunks := make([]*chunk, len(cols))
	for c := range cols {
		chunks[c] = chunkPool.Get().(*chunk)
		cols[c] = chunks[c][:rows:capacity]
	}
	return chunks
}

// claimed hands out columns backed by chunks as a batch holding one claim.
func claimed(cols [][]int64, chunks []*chunk) *Vec {
	p := &pooled{v: Vec{Cols: cols}, c: claims{chunks: chunks}}
	p.c.n.Store(1)
	p.v.claims = &p.c
	return &p.v
}

// Make returns a dense batch of width columns and rows rows — the wire
// decoder's — whose every value the caller must write: a batch of more than
// half and at most DefaultBatchRows rows is pooled chunks, any other one
// fresh slab, so a short batch never holds a whole chunk per column.
func Make(width, rows int) *Vec {
	cols := make([][]int64, width)
	if rows > DefaultBatchRows/2 && rows <= DefaultBatchRows {
		return claimed(cols, takeChunks(cols, rows, rows))
	}
	slab := make([]int64, width*rows)
	for c := range cols {
		cols[c] = slab[c*rows : (c+1)*rows : (c+1)*rows]
	}
	return &Vec{Cols: cols}
}

// Views appends to dst the batch's rows under each selection of sels, nil
// for an empty one — how the exchange hands a batch's partitions out. The
// selections are cut from slab, a TakeSel slab, and the views share the
// batch's columns under one claim record: it holds a claim on the batch and
// owns slab, and the last view's Release hands slab back and drops that
// claim.
func (v *Vec) Views(dst []*Vec, sels [][]int32, slab []int32) []*Vec {
	rec := &claims{sel: slab, parent: v.claims}
	rec.n.Store(1) // Views' own, dropped below once every view holds one
	if v.claims != nil {
		v.claims.n.Add(1)
	}
	for _, s := range sels {
		var view *Vec
		if len(s) > 0 {
			rec.n.Add(1)
			view = &Vec{Cols: v.Cols, Sel: s, claims: rec}
		}
		dst = append(dst, view)
	}
	rec.drop()
	return dst
}

// Release drops this reader's claim; nothing may read the batch afterwards.
// Releasing a batch twice, or one that holds no claim, does nothing.
func (v *Vec) Release() {
	c := v.claims
	if c == nil {
		return
	}
	v.claims = nil
	c.drop()
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

// b2i is 1 for true: a branch-free compaction advances by it.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// FilterEq narrows the batch to live rows whose column col equals val,
// sharing column storage: only the selection vector is built, cut from a
// TakeSel slab — sized to the matches, not the rows, when the batch is
// longer than a pooled slab (a placed shard). The receiver is unchanged; the
// result's claim record owns the slab and holds a claim on the receiver,
// which its Release drops.
func (v *Vec) FilterEq(col int, val int64) *Vec {
	c := v.Cols[col]
	n := v.Len()
	if n > DefaultBatchRows {
		n = int(v.countEq(c, val)) + 1 // the compaction writes one past the last match
	}
	slab := TakeSel(n)
	m := int32(0)
	if v.Sel != nil {
		for _, r := range v.Sel {
			slab[m] = r
			m += b2i(c[r] == val)
		}
	} else {
		for r, x := range c {
			slab[m] = int32(r)
			m += b2i(x == val)
		}
	}
	if m == 0 {
		PutSel(slab)
		return &Vec{Cols: v.Cols, Sel: emptySel}
	}
	p := &pooled{v: Vec{Cols: v.Cols, Sel: slab[:m]}, c: claims{sel: slab, parent: v.claims}}
	p.c.n.Store(1)
	if v.claims != nil {
		v.claims.n.Add(1)
	}
	p.v.claims = &p.c
	return &p.v
}

// countEq is how many live rows hold val in column c.
func (v *Vec) countEq(c []int64, val int64) (m int32) {
	if v.Sel != nil {
		for _, r := range v.Sel {
			m += b2i(c[r] == val)
		}
		return m
	}
	for _, x := range c {
		m += b2i(x == val)
	}
	return m
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

// AppendRows materializes the live rows onto dst in row-major form — the
// boundary back to the row world, which only tests and the benchmark's
// vec.append_rows_ns_per_row kernel timing still cross. The rows of one call
// share one backing array, filled column at a time.
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
// buffers or the wire encodes it. A window takes no claim.
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
// Builder serves a whole stream of batches. A batch's columns are taken when
// it receives its first row: pooled chunks at DefaultBatchRows rows per
// batch, else slices of one fresh slab.
type Builder struct {
	cols   [][]int64
	chunks []*chunk // the pooled chunks behind cols, if any
	bs     int
}

// NewBuilder sizes a builder for batches of bs rows and the given width.
func NewBuilder(width, bs int) *Builder {
	if bs <= 0 {
		bs = DefaultBatchRows
	}
	return &Builder{cols: make([][]int64, width), bs: bs}
}

// reserve takes the batch's columns before its first row. Columns are
// capacity-capped at bs so an append past a full batch reallocates that
// column instead of running into its neighbour.
func (b *Builder) reserve() {
	if len(b.cols) == 0 || cap(b.cols[0]) > 0 {
		return
	}
	if b.bs == DefaultBatchRows {
		b.chunks = takeChunks(b.cols, 0, b.bs)
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

// Reset empties the builder, keeping its columns.
func (b *Builder) Reset() {
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
}

// Release empties the builder and hands its pooled chunks back; the next row
// takes new ones. A stream whose builder never flushes (the wire sender's)
// releases it when the stream ends.
func (b *Builder) Release() {
	for c := range b.cols {
		b.cols[c] = nil
	}
	for _, ch := range b.chunks {
		chunkPool.Put(ch)
	}
	b.chunks = nil
}

// Flush returns the accumulated batch as a dense Vec and resets the
// builder; nil when nothing accumulated. A batch of pooled chunks holds one
// claim.
func (b *Builder) Flush() *Vec {
	if b.Len() == 0 {
		return nil
	}
	var v *Vec
	if b.chunks != nil {
		v = claimed(b.cols, b.chunks)
	} else {
		v = &Vec{Cols: b.cols}
	}
	b.cols = make([][]int64, len(b.cols))
	b.chunks = nil
	return v
}

// Buffer is a growable columnar row store: the build side of joins.
// Appending compacts selections; rows are addressed by dense index. Each
// column is a list of pooled chunks, row r at [r>>10][r&1023], so an appended
// row never moves, a drained stream is copied once however many batches it
// arrived in, and the buffer holds at most one partial chunk per column
// beyond its rows. Release hands the chunks back.
type Buffer struct {
	cols []Column
	n    int
}

// Column is one buffered column as its chunks.
type Column []*chunk

// At returns the value of row r.
func (c Column) At(r int32) int64 { return c[r>>chunkBits][r&chunkMask] }

// NewBuffer creates a buffer of the given width.
func NewBuffer(width int) *Buffer {
	return &Buffer{cols: make([]Column, width)}
}

// Len is the number of buffered rows; a zero-width buffer holds none.
func (t *Buffer) Len() int { return t.n }

// Width is the number of columns.
func (t *Buffer) Width() int { return len(t.cols) }

// Col exposes column c's storage (read-only by convention).
func (t *Buffer) Col(c int) Column { return t.cols[c] }

// Value returns column c of buffered row r.
func (t *Buffer) Value(c, r int) int64 { return t.cols[c].At(int32(r)) }

// Append copies the live rows of v into the buffer, taking a chunk per
// column each time the last one fills, and returns the index of the first
// appended row.
func (t *Buffer) Append(v *Vec) int {
	start := t.n
	if len(t.cols) == 0 {
		return start
	}
	for c := range t.cols {
		src, sel, col := v.Cols[c], v.Sel, t.cols[c]
		for at, left := start, v.Len(); left > 0; {
			if at&chunkMask == 0 {
				col = append(col, chunkPool.Get().(*chunk))
			}
			dst := col[at>>chunkBits][at&chunkMask:]
			k := min(len(dst), left)
			if sel == nil {
				copy(dst, src[:k])
				src = src[k:]
			} else {
				for i, r := range sel[:k] {
					dst[i] = src[r]
				}
				sel = sel[k:]
			}
			at, left = at+k, left-k
		}
		t.cols[c] = col
	}
	t.n += v.Len()
	return start
}

// Gather appends the buffered rows at the given indices to b starting at
// output column at, column at a time.
func (t *Buffer) Gather(b *Builder, at int, idx []int32) {
	if len(idx) == 0 {
		return
	}
	b.reserve()
	for c, col := range t.cols {
		dst := b.cols[at+c]
		for _, r := range idx {
			dst = append(dst, col.At(r))
		}
		b.cols[at+c] = dst
	}
}

// Index builds the hash table over column c of the buffered rows.
func (t *Buffer) Index(c int) *HashTable {
	h := &HashTable{}
	h.index(t.cols[c], t.n)
	return h
}

// Release hands the chunks back, returning the buffer to zero length while
// keeping its width. Releasing twice does nothing.
func (t *Buffer) Release() {
	for c, col := range t.cols {
		for _, ch := range col {
			chunkPool.Put(ch)
		}
		t.cols[c] = nil
	}
	t.n = 0
}
