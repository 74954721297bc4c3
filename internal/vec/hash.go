package vec

import (
	"math/bits"
	"sync"

	"paropt/internal/storage"
)

// HashTable indexes int64 join keys to the dense row indices of a Buffer,
// built once by Buffer.Index: one 8-byte entry per row — the row low — in
// pooled chunks, grouped by bucket, newest row first, so a probe reads its
// bucket as consecutive words, not a chain of dependent loads. The keys pick
// one of two layouts. Keys spanning fewer than denseSpan× as many values as
// rows are indexed by value: bucket b holds exactly the rows of key lo+b, so
// a probe needs no hash and no key confirmation, and the table holds 8 B per
// row plus 4·(span+1)/n B of offsets in pooled chunks. Wider keys are
// hashed: an entry carries the key's 32-bit hash high, candidates are
// confirmed against the Buffer's key column, and the table holds 8 B per row
// plus at most 4 B of pooled offsets.
type HashTable struct {
	off  []int32     // hashed: bucket b's entries at off[b]..off[b+1]
	slab *[]int32    // off's pool handle
	offc []*selChunk // by value: off, cut into chunks
	ents Column      // one entry per row, grouped by bucket
	n    int
	mask uint32 // hashed: buckets-1
	lo   int64  // by value: bucket b holds key lo+b
	span uint64 // by value: the bucket count; 0 on a hashed table

	own   Column // Insert's keys; stale: not indexed yet
	stale bool
}

func entryRow(e int64) int32   { return int32(uint32(e)) }
func entryHash(e int64) uint32 { return uint32(uint64(e) >> 32) }

// offsetPools recycle offset arrays, one pool per power-of-two bucket count.
var offsetPools [32]sync.Pool

// bucketsFor is the bucket count for n rows: the least power of two, at
// least 16, that keeps buckets at two rows on average.
func bucketsFor(n int) int {
	b := 16
	for 2*b < n {
		b *= 2
	}
	return b
}

// denseSpan bounds the by-value layout. Keys spanning fewer than
// denseSpan×n values cost at most 16 B of offsets per row, so the table
// stays within twice the hashed one's 12 B, and the probe repays that by
// skipping the hash, the stored-hash compare and the key confirmation. A
// wider span spends more on empty buckets, and on the cache lines they
// spread over, than that saves.
const denseSpan = 4

// valueSpan reads the first n keys' least value lo and reports whether they
// span fewer than denseSpan×n values, and how many.
func valueSpan(keys Column, n int) (span uint64, lo int64, ok bool) {
	if n == 0 {
		return 0, 0, false
	}
	lo, hi := keys.At(0), keys.At(0)
	for i, ch := range keys {
		for _, k := range ch[:min(DefaultBatchRows, n-i<<chunkBits)] {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	// hi-lo is the right unsigned distance even where it overflows int64.
	if d := uint64(hi - lo); d < denseSpan*uint64(n)-1 {
		return d + 1, lo, true
	}
	return 0, 0, false
}

// index builds the table over the first n values of keys: count each
// bucket's rows, sum the counts into bucket ends, then place rows in order,
// each one below its bucket's end — so a bucket lists its newest row first.
func (h *HashTable) index(keys Column, n int) {
	if span, lo, ok := valueSpan(keys, n); ok {
		h.indexByValue(keys, n, span, lo)
		return
	}
	buckets := bucketsFor(n)
	pool := &offsetPools[bits.TrailingZeros(uint(buckets))]
	if h.slab, _ = pool.Get().(*[]int32); h.slab == nil {
		s := make([]int32, buckets+1)
		h.slab = &s
	}
	off, mask := *h.slab, uint32(buckets-1)
	clear(off)
	for i, ch := range keys {
		for _, k := range ch[:min(DefaultBatchRows, n-i<<chunkBits)] {
			off[uint32(storage.Hash64(k))&mask]++
		}
	}
	sum := int32(0)
	for b, c := range off {
		sum += c
		off[b] = sum
	}
	ents := takeColumn(n)
	for i, ch := range keys {
		for j, k := range ch[:min(DefaultBatchRows, n-i<<chunkBits)] {
			hk := uint32(storage.Hash64(k))
			at := off[hk&mask] - 1
			off[hk&mask] = at
			ents[at>>chunkBits][at&chunkMask] = int64(uint64(hk)<<32 | uint64(i<<chunkBits+j))
		}
	}
	h.off, h.ents, h.n, h.mask = off, ents, n, mask
}

// indexByValue is index over keys spanning span values from lo, bucket
// k-lo holding key k. Its span+1 offsets are selection-slab chunks, which
// every table shares whatever its span.
func (h *HashTable) indexByValue(keys Column, n int, span uint64, lo int64) {
	offc := make([]*selChunk, (span+chunkMask+1)>>chunkBits)
	for c := range offc {
		offc[c] = selPool.Get().(*selChunk)
		clear(offc[c][:])
	}
	for i, ch := range keys {
		for _, k := range ch[:min(DefaultBatchRows, n-i<<chunkBits)] {
			b := uint64(k - lo)
			offc[b>>chunkBits][b&chunkMask]++
		}
	}
	sum := int32(0)
	for _, c := range offc {
		for b, v := range c {
			sum += v
			c[b] = sum
		}
	}
	ents := takeColumn(n)
	for i, ch := range keys {
		for j, k := range ch[:min(DefaultBatchRows, n-i<<chunkBits)] {
			b := uint64(k - lo)
			at := offc[b>>chunkBits][b&chunkMask] - 1
			offc[b>>chunkBits][b&chunkMask] = at
			ents[at>>chunkBits][at&chunkMask] = int64(i<<chunkBits + j)
		}
	}
	h.offc, h.ents, h.n, h.lo, h.span = offc, ents, n, lo, span
}

// bucketAt is where by-value bucket b's entries start, and b-1's end.
func bucketAt(offc []*selChunk, b uint64) int32 { return offc[b>>chunkBits][b&chunkMask] }

// NewHashTable, Insert and Probe are bench-only, for the benchmark's kernel
// timings: an inserted table indexes its own keys on the next Probe.
func NewHashTable() *HashTable { return &HashTable{} }

// Bytes is the indexed table's entry chunks and offsets; a table inserted
// into and not indexed yet reports the layout its keys will index to.
func (h *HashTable) Bytes() int64 {
	if h.n == 0 {
		return 0
	}
	ents := int64((h.n+chunkMask)>>chunkBits) * 8 * DefaultBatchRows
	span := h.span
	if h.stale {
		span, _, _ = valueSpan(h.own, h.n)
	}
	if span != 0 {
		return ents + int64((span+chunkMask+1)>>chunkBits)*4*DefaultBatchRows
	}
	return ents + int64(bucketsFor(h.n)+1)*4
}

// Insert appends one row under key (bench-only).
func (h *HashTable) Insert(key int64) {
	if h.n&chunkMask == 0 {
		h.own = append(h.own, chunkPool.Get().(*chunk))
	}
	h.own[h.n>>chunkBits][h.n&chunkMask] = key
	h.n++
	h.stale = true
}

// Probe calls fn with the rows of key's bucket — on a hashed table those
// whose stored hash equals key's — newest first, until fn returns false
// (bench-only). Hash collisions make false positives possible: callers
// confirm each row against the keys they inserted.
func (h *HashTable) Probe(key int64, fn func(row int32) bool) {
	if h.stale {
		h.releaseIndex()
		h.index(h.own, h.n)
		h.stale = false
	}
	if h.n == 0 {
		return
	}
	if h.span != 0 {
		if b := uint64(key - h.lo); b < h.span {
			for i := bucketAt(h.offc, b); i < bucketAt(h.offc, b+1); i++ {
				if !fn(entryRow(h.ents.At(i))) {
					return
				}
			}
		}
		return
	}
	hk := uint32(storage.Hash64(key))
	for i := h.off[hk&h.mask]; i < h.off[hk&h.mask+1]; i++ {
		if e := h.ents.At(i); entryHash(e) == hk && !fn(entryRow(e)) {
			return
		}
	}
}

func (h *HashTable) releaseIndex() {
	h.ents.Release()
	if h.slab != nil {
		offsetPools[bits.TrailingZeros(uint(len(*h.slab)-1))].Put(h.slab)
	}
	for _, c := range h.offc {
		selPool.Put(c)
	}
	h.ents, h.slab, h.off, h.offc, h.span = nil, nil, nil, nil, 0
}

// Release hands back the entries, offsets and any inserted keys; releasing
// twice does nothing.
func (h *HashTable) Release() {
	h.releaseIndex()
	h.own.Release()
	*h = HashTable{}
}

// ProbeCursor is where a ProbeBatch resumes: live row Pos, at entry at-1 of
// its bucket (0 = the bucket's first). The zero value starts a batch.
type ProbeCursor struct {
	Pos int
	at  int32
}

// ProbeBatch probes the live rows of a key column (sel nil = all of keys)
// from cur on against buildKeys, the column the table indexes, appending a
// (physical probe row, dense build row) pair per match to lsel and rsel in
// probe-row order, a row's matches newest build row first. It stops with
// limit (> 0) pairs appended and cur at the next match, so callers pass
// their output batch's room; done reports that every live row was probed.
// A row walks its bucket's consecutive entries: on a by-value table it
// emits them all, a key outside the span having none; on a hashed one it
// confirms hash-equal ones against buildKeys.
func (h *HashTable) ProbeBatch(keys []int64, sel []int32, buildKeys Column, cur *ProbeCursor, limit int, lsel, rsel []int32) (l, r []int32, done bool) {
	n := len(keys)
	if sel != nil {
		n = len(sel)
	}
	if h.span != 0 {
		return h.probeByValue(keys, sel, n, cur, limit, lsel, rsel)
	}
	ents, stop := h.ents, len(lsel)+limit
	for ; cur.Pos < n; cur.Pos, cur.at = cur.Pos+1, 0 {
		p := int32(cur.Pos)
		if sel != nil {
			p = sel[p]
		}
		k := keys[p]
		hk := uint32(storage.Hash64(k))
		at, end := h.off[hk&h.mask], h.off[hk&h.mask+1]
		if cur.at != 0 {
			at = cur.at - 1
		}
		for ; at < end; at++ {
			if e := ents[at>>chunkBits][at&chunkMask]; entryHash(e) == hk && buildKeys.At(entryRow(e)) == k {
				if len(lsel) == stop {
					cur.at = at + 1
					return lsel, rsel, false
				}
				lsel, rsel = append(lsel, p), append(rsel, entryRow(e))
			}
		}
	}
	return lsel, rsel, true
}

// probeByValue is ProbeBatch on a by-value table: no hash, no stored-hash
// compare and no key load — bucket k-lo is exactly key k's rows. It reads
// the bucket bounds of a window of rows before walking any of them, so their
// loads overlap instead of each waiting on the walk before it.
func (h *HashTable) probeByValue(keys []int64, sel []int32, n int, cur *ProbeCursor, limit int, lsel, rsel []int32) (l, r []int32, done bool) {
	offc, ents, lo, span, stop := h.offc, h.ents, h.lo, h.span, len(lsel)+limit
	var bounds [64][2]int32
	for cur.Pos < n {
		w := min(len(bounds), n-cur.Pos)
		for i := range w {
			p := int32(cur.Pos + i)
			if sel != nil {
				p = sel[p]
			}
			if b := uint64(keys[p] - lo); b < span {
				bounds[i] = [2]int32{bucketAt(offc, b), bucketAt(offc, b+1)}
			} else {
				bounds[i] = [2]int32{}
			}
		}
		for i := 0; i < w; i, cur.Pos, cur.at = i+1, cur.Pos+1, 0 {
			at, end := bounds[i][0], bounds[i][1]
			if at == end {
				continue
			}
			if cur.at != 0 {
				at = cur.at - 1
			}
			p := int32(cur.Pos)
			if sel != nil {
				p = sel[p]
			}
			for ; at < end; at++ {
				if len(lsel) == stop {
					cur.at = at + 1
					return lsel, rsel, false
				}
				lsel, rsel = append(lsel, p), append(rsel, entryRow(ents[at>>chunkBits][at&chunkMask]))
			}
		}
	}
	return lsel, rsel, true
}
