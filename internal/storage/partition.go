package storage

import "math/bits"

// Hash partitioning is defined here, at the data substrate, because both
// sides of a shared-nothing deployment must agree on it bit-for-bit: the
// exchange layer partitions in-flight streams with it, and worker-side
// placement stores (internal/placement) materialize base-relation shards
// with it. A worker's resident shard i of a relation partitioned on column
// c equals the coordinator's stream partition i on key c exactly because
// both call the same function.

// Hash64 mixes a key for partitioning (splitmix64 finalizer).
func Hash64(v int64) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Partition maps a key to a partition in [0, parts). The partition count is
// mixed in after the hash via the fastrange reduction (high word of the
// 128-bit product), so all 64 mixed bits decide the bucket; reducing with
// `%` before mixing would let sequential or low-entropy keys alias into few
// buckets for some partition counts.
func Partition(v int64, parts int) int {
	hi, _ := bits.Mul64(Hash64(v), uint64(parts))
	return int(hi)
}

// Shard is hash partition part of parts of a table on the column at
// position hashCol — the worker-resident fragment of a placed relation — as
// columnar slabs (Shard(...)[c][r] is column c of the shard's row r, table
// order kept) cut from one pointer-free allocation, so a resident shard costs
// the collector nothing to scan. parts < 2 is the single-shard placement:
// every row, aliasing the table's own Columns. Read-only either way.
func Shard(t *Table, hashCol, part, parts int) [][]int64 {
	if parts < 2 {
		return t.Columns()
	}
	var keep []int32
	for r, row := range t.Rows {
		if Partition(row[hashCol], parts) == part {
			keep = append(keep, int32(r))
		}
	}
	n := len(keep)
	cols := make([][]int64, len(t.Rel.Columns))
	slab := make([]int64, len(cols)*n)
	for c := range cols {
		cols[c] = slab[c*n : (c+1)*n : (c+1)*n]
	}
	for i, r := range keep {
		row := t.Rows[r]
		for c := range cols {
			cols[c][i] = row[c]
		}
	}
	return cols
}
