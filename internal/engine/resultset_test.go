package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"paropt/internal/query"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// The row-at-a-time Resultset operations the columnar ones replaced, kept as
// the oracle they are compared against.

func rowProject(schema Schema, rows []storage.Row, cols []query.ColumnRef) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, row := range rows {
		nr := make(storage.Row, len(cols))
		for j, c := range cols {
			nr[j] = row[schema.IndexOf(c)]
		}
		out[i] = nr
	}
	return out
}

func rowNormalize(schema Schema, rows []storage.Row) (Schema, []storage.Row) {
	sorted := append(Schema(nil), schema...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Relation != sorted[b].Relation {
			return sorted[a].Relation < sorted[b].Relation
		}
		return sorted[a].Column < sorted[b].Column
	})
	return sorted, rowProject(schema, rows, sorted)
}

func rowFingerprint(schema Schema, rows []storage.Row) uint64 {
	_, norm := rowNormalize(schema, rows)
	var sum, xor uint64
	for _, row := range norm {
		h := uint64(1469598103934665603)
		for _, v := range row {
			h ^= uint64(v)
			h *= 1099511628211
		}
		sum += h
		xor ^= h * 2654435761
	}
	return sum ^ xor ^ uint64(len(norm))<<32
}

func rowGroupBy(schema Schema, rows []storage.Row, keys []query.ColumnRef, sumOf query.ColumnRef) []GroupedRow {
	groups := map[string]*GroupedRow{}
	for _, row := range rows {
		key := make([]int64, len(keys))
		for i, k := range keys {
			key[i] = row[schema.IndexOf(k)]
		}
		id := fmt.Sprint(key)
		if groups[id] == nil {
			groups[id] = &GroupedRow{Key: key}
		}
		groups[id].Count++
		groups[id].Sum += row[schema.IndexOf(sumOf)]
	}
	out := make([]GroupedRow, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(a, b int) bool {
		for i := range out[a].Key {
			if out[a].Key[i] != out[b].Key[i] {
				return out[a].Key[i] < out[b].Key[i]
			}
		}
		return false
	})
	return out
}

// TestColumnarResultsetMatchesRowOracle: Project, Normalize, Fingerprint and
// GroupBy on column batches must equal the row implementations on generated
// results — empty, single-batch and multi-batch, with shuffled schemas and
// negative values.
func TestColumnarResultsetMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		width := 1 + rng.Intn(6)
		schema := make(Schema, width)
		for i := range schema {
			schema[i] = query.ColumnRef{Relation: fmt.Sprintf("R%d", rng.Intn(3)), Column: fmt.Sprintf("c%d", i)}
		}
		rng.Shuffle(width, func(a, b int) { schema[a], schema[b] = schema[b], schema[a] })
		n := []int{0, 1, 7, 300, 2500}[trial%5]
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = make(storage.Row, width)
			for c := range rows[i] {
				rows[i][c] = rng.Int63n(9) - 4
			}
		}
		// The shape Execute produces: the root's dense batches, no row cache.
		var batches []Batch
		all, bs := vec.FromRows(rows), 1+rng.Intn(1024)
		for lo := 0; lo < n; lo += bs {
			batches = append(batches, all.Window(lo, min(lo+bs, n)))
		}
		res := &Resultset{Schema: schema, batches: batches, n: n}
		if res.Len() != n || len(res.Rows()) != n || (n > 0 && !reflect.DeepEqual(res.Rows(), rows)) {
			t.Fatalf("trial %d: Rows() does not round-trip %d rows", trial, n)
		}

		cols := make([]query.ColumnRef, 1+rng.Intn(width))
		for i := range cols {
			cols[i] = schema[rng.Intn(width)]
		}
		proj, err := res.Project(cols)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowProject(schema, rows, cols); !reflect.DeepEqual(proj.Schema, Schema(cols)) ||
			proj.Len() != n || (n > 0 && !reflect.DeepEqual(proj.Rows(), want)) {
			t.Fatalf("trial %d: Project(%v) differs from the row oracle", trial, cols)
		}

		norm := res.Normalize()
		wantSchema, wantRows := rowNormalize(schema, rows)
		if !reflect.DeepEqual(norm.Schema, wantSchema) || (n > 0 && !reflect.DeepEqual(norm.Rows(), wantRows)) {
			t.Fatalf("trial %d: Normalize differs from the row oracle", trial)
		}

		if got, want := res.Fingerprint(), rowFingerprint(schema, rows); got != want {
			t.Fatalf("trial %d: Fingerprint = %x, row oracle %x", trial, got, want)
		}
		if got, want := newRowResultset(schema, rows).Fingerprint(), res.Fingerprint(); got != want {
			t.Fatalf("trial %d: row-built and batch-built results fingerprint differently", trial)
		}

		keys := cols[:1+rng.Intn(len(cols))]
		sumOf := schema[rng.Intn(width)]
		groups, err := res.GroupBy(keys, sumOf)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowGroupBy(schema, rows, keys, sumOf); len(groups) != len(want) || (len(want) > 0 && !reflect.DeepEqual(groups, want)) {
			t.Fatalf("trial %d: GroupBy(%v, %v) differs from the row oracle", trial, keys, sumOf)
		}
	}
}
