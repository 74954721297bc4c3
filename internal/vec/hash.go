package vec

import "paropt/internal/storage"

// HashTable indexes int64 join keys to the dense row indices of a Buffer
// with chained buckets over two flat arrays — no per-key allocations, no
// pointers for the collector to trace, and ~10 bytes of metadata per row
// regardless of key distribution. The keys themselves are not stored: the
// Buffer's key column already holds them, so the table keeps only a 32-bit
// hash per row (probe prefilter and growth rehash) and candidates are
// confirmed against that key column — inline by ProbeBatch, by the caller of
// Probe. The hash join builds it once over the drained build side.
type HashTable struct {
	heads []int32 // bucket → 1+index of newest row in chain, 0 = empty
	rows  []link  // dense row → its chain link
	mask  uint32
}

// link is one row's table entry. The chain pointer and the hash sit in one
// word so a chain step costs one cache line, not two.
type link struct {
	next int32  // 1+index of the next-older row in the chain, 0 = end
	hash uint32 // key hash (probe prefilter; rehash on growth)
}

// NewHashTable creates an empty table.
func NewHashTable() *HashTable {
	return &HashTable{heads: make([]int32, 16), mask: 15}
}

// Len is the number of inserted rows.
func (h *HashTable) Len() int { return len(h.rows) }

// Bytes is the table's metadata footprint.
func (h *HashTable) Bytes() int64 {
	return int64(len(h.heads))*4 + int64(cap(h.rows))*8
}

// Reserve makes room for n more rows. The bucket array is sized so chains
// average at most two rows and rebuilt from the stored hashes when it has to
// grow; the per-row array is sized to exactly the need when empty and at
// least doubled otherwise. Reserving a drained build side's row count up
// front therefore allocates each array once and never rehashes.
func (h *HashTable) Reserve(n int) {
	need := len(h.rows) + n
	if need > cap(h.rows) {
		c := 2 * cap(h.rows)
		if c < need {
			c = need
		}
		h.rows = append(make([]link, 0, c), h.rows...)
	}
	if need <= 2*len(h.heads) {
		return
	}
	buckets := len(h.heads)
	if buckets == 0 {
		buckets = 16
	}
	for 2*buckets < need {
		buckets *= 2
	}
	h.mask = uint32(buckets) - 1
	h.heads = make([]int32, buckets)
	for r := range h.rows {
		b := h.rows[r].hash & h.mask
		h.rows[r].next = h.heads[b]
		h.heads[b] = int32(r) + 1
	}
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
	h.rows = append(h.rows, link{next: h.heads[b], hash: hk})
	h.heads[b] = int32(len(h.rows))
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
	hk := uint32(storage.Hash64(key))
	for cur := h.heads[hk&h.mask]; cur != 0; {
		r := cur - 1
		if h.rows[r].hash == hk && !fn(r) {
			return
		}
		cur = h.rows[r].next
	}
}

// ProbeCursor is where a ProbeBatch that reached its limit resumes: live row
// Pos of the probe batch, at chain link chain (0 = the row's chain has not
// been entered). The zero value starts a batch.
type ProbeCursor struct {
	Pos   int
	chain int32
}

// ProbeBatch probes the live rows of a key column (sel nil = all of keys)
// from cur onward, confirming every candidate against buildKeys — the key
// column the table's rows were inserted from — and appending one (physical
// probe row, dense build row) pair per match to lsel and rsel. It stops
// after limit (> 0) pairs, leaving cur at the first unvisited candidate, so
// callers pass the room left in their output batch and call again after
// flushing. done reports that every live row was probed to the end of its
// chain. Matches of one probe row come newest build row first.
func (h *HashTable) ProbeBatch(keys []int64, sel []int32, buildKeys []int64, cur *ProbeCursor, limit int, lsel, rsel []int32) (l, r []int32, done bool) {
	n := len(keys)
	if sel != nil {
		n = len(sel)
	}
	if len(h.rows) == 0 {
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
			e := h.rows[row]
			at = e.next
			if e.hash != hk || buildKeys[row] != k {
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
