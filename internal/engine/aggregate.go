package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"paropt/internal/query"
)

// GroupedRow is one group of a grouped aggregation.
type GroupedRow struct {
	// Key holds the group's key values, in the order requested.
	Key []int64
	// Count is the number of input rows in the group.
	Count int64
	// Sum is the sum of the aggregated column over the group.
	Sum int64
}

// GroupBy aggregates the result by the key columns, computing COUNT(*) and
// SUM(sumOf) per group, returned in ascending key order. It is the
// post-processing the paper's §1 scenario implies ("graphing the results by
// many categories of stocks"): strictly downstream of the SPJ query the
// optimizer handles.
func (r *Resultset) GroupBy(keys []query.ColumnRef, sumOf query.ColumnRef) ([]GroupedRow, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("engine: GroupBy needs at least one key column")
	}
	keyPos := make([]int, len(keys))
	for i, k := range keys {
		pos := r.Schema.IndexOf(k)
		if pos < 0 {
			return nil, fmt.Errorf("engine: group key %v not in schema", k)
		}
		keyPos[i] = pos
	}
	sumPos := r.Schema.IndexOf(sumOf)
	if sumPos < 0 {
		return nil, fmt.Errorf("engine: aggregate column %v not in schema", sumOf)
	}
	// Group identity is the fixed-width binary encoding of the key values —
	// exact (no formatting, no collisions) and allocation-free on the hot
	// path: the map lookup with string(kb) doesn't copy, and only new groups
	// materialize their key slice.
	groups := map[string]*GroupedRow{}
	kb := make([]byte, 0, 8*len(keyPos))
	for _, b := range r.batches {
		sumCol := b.Cols[sumPos]
		for i := range sumCol {
			kb = kb[:0]
			for _, p := range keyPos {
				kb = binary.LittleEndian.AppendUint64(kb, uint64(b.Cols[p][i]))
			}
			g, ok := groups[string(kb)]
			if !ok {
				g = &GroupedRow{Key: make([]int64, len(keyPos))}
				for j, p := range keyPos {
					g.Key[j] = b.Cols[p][i]
				}
				groups[string(kb)] = g
			}
			g.Count++
			g.Sum += sumCol[i]
		}
	}
	out := make([]GroupedRow, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(a, b int) bool {
		ka, kb := out[a].Key, out[b].Key
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	return out, nil
}
