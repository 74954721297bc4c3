package vec

import (
	"math/bits"
	"sync"
)

// radixBits is SortOrder's digit: six passes cover the int64 range, and a
// pass's counts, pooled, stay in the first-level cache.
const radixBits = 11

type radixCounts [(64 + radixBits - 1) / radixBits][1 << radixBits]int32

var radixPool = sync.Pool{New: func() any { return new(radixCounts) }}

// SortOrder is rows 0..n-1 of c sorted by value, then row, as row indices in
// pooled chunks — nil when every value is equal (arrival order): an LSD
// radix sort of value − min over the passes its range spans, keys and rows
// ping-ponging between pooled chunks.
func (c Column) SortOrder(n int) Column {
	if n == 0 {
		return nil
	}
	lo, hi := c.At(0), c.At(0)
	for i := range int32(n) {
		lo, hi = min(lo, c.At(i)), max(hi, c.At(i))
	}
	passes := (bits.Len64(uint64(hi-lo)) + radixBits - 1) / radixBits
	if passes == 0 {
		return nil
	}
	counts := radixPool.Get().(*radixCounts)
	defer radixPool.Put(counts)
	clear(counts[:passes])
	for i := range int32(n) {
		for p, d := 0, uint64(c.At(i)-lo); p < passes; p, d = p+1, d>>radixBits {
			counts[p][d&(1<<radixBits-1)]++
		}
	}
	// Pass p writes list p%2 from list 1-p%2, the first from the column.
	var keys, rows [2]Column
	for p := range passes {
		sum := int32(0)
		for d, k := range counts[p] {
			counts[p][d], sum = sum, sum+k
		}
		out, in := p%2, 1-p%2
		if rows[out] == nil {
			rows[out], keys[out] = takeColumn(n), takeColumn(n)
		}
		for i := range int32(n) {
			key, row := uint64(c.At(i)-lo), int64(i)
			if p > 0 {
				key, row = uint64(keys[in].At(i)), rows[in].At(i)
			}
			d := &counts[p][key>>(p*radixBits)&(1<<radixBits-1)]
			at := *d
			*d++
			rows[out][at>>chunkBits][at&chunkMask] = row
			keys[out][at>>chunkBits][at&chunkMask] = int64(key)
		}
	}
	keys[0].Release()
	keys[1].Release()
	rows[passes%2].Release()
	return rows[(passes-1)%2]
}

// takeColumn is n values of pooled chunks the caller writes before reading.
func takeColumn(n int) Column {
	var c Column
	for len(c)<<chunkBits < n {
		c = append(c, chunkPool.Get().(*chunk))
	}
	return c
}

// Release hands back a column's chunks, unless a Buffer owns them.
func (c Column) Release() {
	for _, ch := range c {
		chunkPool.Put(ch)
	}
}
