package vec

import (
	"math/bits"
	"sync"

	"paropt/internal/storage"
)

// HashTable indexes int64 join keys to the dense row indices of a Buffer,
// built once by Buffer.Index: one 8-byte entry per row — the key's 32-bit
// hash high, the row low — in pooled chunks, grouped by bucket, newest row
// first, so a probe reads its bucket as consecutive words, not a chain of
// dependent loads. Candidates are confirmed against the Buffer's key column:
// the table holds 8 B per row plus at most 4 B of pooled offsets.
type HashTable struct {
	off  []int32  // bucket b's entries at off[b]..off[b+1]
	slab *[]int32 // off's pool handle
	ents Column   // one entry per row, grouped by bucket
	n    int
	mask uint32

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

// index builds the table over the first n values of keys: count each
// bucket's rows, sum the counts into bucket ends, then place rows in order,
// each one below its bucket's end — so a bucket lists its newest row first.
func (h *HashTable) index(keys Column, n int) {
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

// NewHashTable, Insert and Probe are bench-only, for the benchmark's kernel
// timings: an inserted table indexes its own keys on the next Probe.
func NewHashTable() *HashTable { return &HashTable{} }

// Bytes is the indexed table's entry chunks and offsets.
func (h *HashTable) Bytes() int64 {
	if h.n == 0 {
		return 0
	}
	return int64((h.n+chunkMask)>>chunkBits)*8*DefaultBatchRows + int64(bucketsFor(h.n)+1)*4
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

// Probe calls fn with the rows whose stored hash equals key's, newest first,
// until fn returns false (bench-only). Hash collisions make false positives
// possible: callers confirm each row against the keys they inserted.
func (h *HashTable) Probe(key int64, fn func(row int32) bool) {
	if h.stale {
		h.releaseIndex()
		h.index(h.own, h.n)
		h.stale = false
	}
	if h.n == 0 {
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
	h.ents, h.slab, h.off = nil, nil, nil
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
// A row walks its bucket's consecutive entries, confirming hash-equal ones
// against buildKeys.
func (h *HashTable) ProbeBatch(keys []int64, sel []int32, buildKeys Column, cur *ProbeCursor, limit int, lsel, rsel []int32) (l, r []int32, done bool) {
	n := len(keys)
	if sel != nil {
		n = len(sel)
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
