package vec

import (
	"math/bits"
	"sync"

	"paropt/internal/storage"
)

// HashTable indexes int64 join keys to the dense row indices of a Buffer
// with chained buckets — no per-key allocations, no pointers for the
// collector to trace, and ~10 bytes of metadata per row regardless of key
// distribution. The keys themselves are not stored: the Buffer's key column
// already holds them, so the table keeps only a 32-bit hash per row (probe
// prefilter and growth rehash) and candidates are confirmed against that key
// column — inline by ProbeBatch, by the caller of Probe. The hash join builds
// it once over the drained build side (Buffer.Index).
//
// Each row's link lives in pooled chunks, row r at [r>>10][r&1023], like a
// Buffer's values; the power-of-two bucket array comes from a pool per
// length. Release hands both back.
type HashTable struct {
	heads []int32  // bucket → 1+index of newest row in chain, 0 = empty
	slab  *[]int32 // heads' pool handle
	links []*chunk // row r's link at [r>>chunkBits][r&chunkMask]
	n     int
	mask  uint32
}

// A link is one row's table entry in one chunk word, so a chain step costs
// one cache line: the key hash (probe prefilter; rehash on growth) in the
// high 32 bits, 1+index of the next-older row in the chain (0 = end) in the
// low.
func link(next int32, hash uint32) int64 { return int64(uint64(hash)<<32 | uint64(uint32(next))) }

func linkNext(e int64) int32  { return int32(e) }
func linkHash(e int64) uint32 { return uint32(uint64(e) >> 32) }

// bucketPools recycle bucket arrays, one pool per power-of-two length.
var bucketPools [32]sync.Pool

// takeBuckets returns a cleared bucket array of n (a power of two) entries
// and its pool handle.
func takeBuckets(n int) *[]int32 {
	if s, ok := bucketPools[bits.TrailingZeros(uint(n))].Get().(*[]int32); ok {
		clear(*s)
		return s
	}
	s := make([]int32, n)
	return &s
}

func putBuckets(s *[]int32) {
	if s != nil {
		bucketPools[bits.TrailingZeros(uint(len(*s)))].Put(s)
	}
}

// NewHashTable creates an empty table.
func NewHashTable() *HashTable { return &HashTable{} }

// Len is the number of inserted rows.
func (h *HashTable) Len() int { return h.n }

// Bytes is the table's metadata footprint: its buckets and link chunks.
func (h *HashTable) Bytes() int64 {
	return int64(len(h.heads))*4 + int64(len(h.links))*8*DefaultBatchRows
}

// Reserve makes room for n more rows: link chunks to cover them, and a bucket
// array sized so chains average at most two rows, rebuilt from the stored
// hashes when it has to grow. Links never move, so reserving a drained build
// side's row count up front takes the bucket array once and never rehashes.
func (h *HashTable) Reserve(n int) {
	need := h.n + n
	for len(h.links)<<chunkBits < need {
		h.links = append(h.links, chunkPool.Get().(*chunk))
	}
	if need <= 2*len(h.heads) {
		return
	}
	buckets := max(len(h.heads), 16)
	for 2*buckets < need {
		buckets *= 2
	}
	old := h.slab
	h.slab = takeBuckets(buckets)
	h.heads, h.mask = *h.slab, uint32(buckets)-1
	for r := 0; r < h.n; r++ {
		e := &h.links[r>>chunkBits][r&chunkMask]
		b := linkHash(*e) & h.mask
		*e = link(h.heads[b], linkHash(*e))
		h.heads[b] = int32(r) + 1
	}
	putBuckets(old)
}

// Insert adds one row under key; rows must be inserted in dense order
// (row == Len() at call time).
func (h *HashTable) Insert(key int64) {
	h.Reserve(1)
	h.insert(key)
}

func (h *HashTable) insert(key int64) {
	hk := uint32(storage.Hash64(key))
	b := hk & h.mask
	h.links[h.n>>chunkBits][h.n&chunkMask] = link(h.heads[b], hk)
	h.n++
	h.heads[b] = int32(h.n)
}

// InsertBatch adds the live rows of a key column (sel nil = all of keys) in
// order, as dense rows Len(), Len()+1, ….
func (h *HashTable) InsertBatch(keys []int64, sel []int32) {
	if sel == nil {
		h.Reserve(len(keys))
		for _, k := range keys {
			h.insert(k)
		}
		return
	}
	h.Reserve(len(sel))
	for _, r := range sel {
		h.insert(keys[r])
	}
}

// Probe iterates the candidate rows for key, newest first, calling fn with
// each dense row index. Candidates are rows whose stored hash equals the
// key's — hash collisions make rare false positives possible, so callers
// must confirm each candidate against the key column they buffered. fn
// returning false stops the scan.
func (h *HashTable) Probe(key int64, fn func(row int32) bool) {
	if h.n == 0 {
		return
	}
	hk := uint32(storage.Hash64(key))
	for cur := h.heads[hk&h.mask]; cur != 0; {
		r := cur - 1
		e := h.links[r>>chunkBits][r&chunkMask]
		if linkHash(e) == hk && !fn(r) {
			return
		}
		cur = linkNext(e)
	}
}

// Release hands the links and buckets back, emptying the table. Releasing
// twice does nothing.
func (h *HashTable) Release() {
	for _, ch := range h.links {
		chunkPool.Put(ch)
	}
	putBuckets(h.slab)
	*h = HashTable{}
}

// ProbeCursor is where a ProbeBatch that reached its limit resumes: live row
// Pos of the probe batch, at chain link chain (0 = the row's chain has not
// been entered). The zero value starts a batch.
type ProbeCursor struct {
	Pos   int
	chain int32
}

// ProbeBatch probes the live rows of a key column (sel nil = all of keys)
// from cur onward, confirming every candidate against buildKeys — the
// buffered column the table's rows were inserted from — and appending one
// (physical probe row, dense build row) pair per match to lsel and rsel. It
// stops after limit (> 0) pairs, leaving cur at the first unvisited
// candidate, so callers pass the room left in their output batch and call
// again after flushing. done reports that every live row was probed to the
// end of its chain. Matches of one probe row come newest build row first.
func (h *HashTable) ProbeBatch(keys []int64, sel []int32, buildKeys Column, cur *ProbeCursor, limit int, lsel, rsel []int32) (l, r []int32, done bool) {
	n := len(keys)
	if sel != nil {
		n = len(sel)
	}
	if h.n == 0 {
		cur.Pos = n
		return lsel, rsel, true
	}
	at := cur.chain
	cur.chain = 0
	for i := cur.Pos; i < n; i++ {
		p := int32(i)
		if sel != nil {
			p = sel[i]
		}
		k := keys[p]
		hk := uint32(storage.Hash64(k))
		if at == 0 {
			at = h.heads[hk&h.mask]
		}
		for at != 0 {
			row := at - 1
			e := h.links[row>>chunkBits][row&chunkMask]
			at = linkNext(e)
			if linkHash(e) != hk || buildKeys.At(row) != k {
				continue
			}
			lsel, rsel = append(lsel, p), append(rsel, row)
			if limit--; limit == 0 {
				if at == 0 {
					i++
				}
				cur.Pos, cur.chain = i, at
				return lsel, rsel, i == n
			}
		}
	}
	cur.Pos = n
	return lsel, rsel, true
}
