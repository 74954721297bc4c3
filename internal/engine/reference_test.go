package engine

import (
	"fmt"
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// referenceCase is one query the golden pins ReferenceJoin's answer for.
type referenceCase struct {
	name string
	cat  *catalog.Catalog
	q    *query.Query
}

// referenceCases are the generated chain, star, cycle and clique queries at
// n ∈ {3, 4} and seeds 1–3, plus one query each with a selection, a
// projection, an empty result and a cross product.
func referenceCases() []referenceCase {
	gen := func(shape query.Shape, n int, seed int64) (*catalog.Catalog, *query.Query) {
		return query.Generate(query.GenConfig{
			Relations: n, Shape: shape, MinCard: 10, MaxCard: 200,
			Disks: 2, IndexProb: 0.5, SortedProb: 0.3, Seed: seed,
		})
	}
	var cases []referenceCase
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
		for n := 3; n <= 4; n++ {
			for seed := int64(1); seed <= 3; seed++ {
				cat, q := gen(shape, n, seed)
				cases = append(cases, referenceCase{fmt.Sprintf("%v/n=%d/seed=%d", shape, n, seed), cat, q})
			}
		}
	}
	cat, q := gen(query.Chain, 3, 1)
	q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "R1", Column: "fk"}, Value: 3}}
	cases = append(cases, referenceCase{"selection", cat, q})
	cat, q = gen(query.Star, 3, 2)
	q.Projection = []query.ColumnRef{{Relation: "R2", Column: "payload"}, {Relation: "R0", Column: "id"}}
	cases = append(cases, referenceCase{"projection", cat, q})
	cat, q = gen(query.Chain, 3, 3)
	q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "R0", Column: "id"}, Value: -1}}
	cases = append(cases, referenceCase{"empty", cat, q})
	cat, q = gen(query.Chain, 2, 1)
	q.Joins = nil
	cases = append(cases, referenceCase{"cross", cat, q})
	return cases
}

// TestReferenceJoinGolden pins the oracle's answer — row count, fingerprint
// and schema — for a fixed set of queries, so a rewrite of ReferenceJoin
// shows at once if it changes any result.
func TestReferenceJoinGolden(t *testing.T) {
	golden := []struct {
		name   string
		n      int
		fp     uint64
		schema string
	}{
		{"chain/n=3/seed=1", 42, 0x44788c72bc4629e8, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"chain/n=3/seed=2", 197, 0x2af5b2b8546baaaa, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"chain/n=3/seed=3", 162, 0xba6aeb4378589f3e, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"chain/n=4/seed=1", 88, 0xa03aa1cd074aa012, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"chain/n=4/seed=2", 122, 0x590f346d244b4a82, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"chain/n=4/seed=3", 125, 0xcbbd0455a579355e, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"star/n=3/seed=1", 706, 0x94710225c54fcbc0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"star/n=3/seed=2", 1773, 0x94d958fbbb7dde1e, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"star/n=3/seed=3", 90, 0xc74db164e886cd84, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"star/n=4/seed=1", 7848, 0x66273d611a9ad3a8, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"star/n=4/seed=2", 13340, 0x24edabebb307d83a, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"star/n=4/seed=3", 1170, 0x9dffd4bfca773eb0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"cycle/n=3/seed=1", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"cycle/n=3/seed=2", 3, 0x45f8957f3d31b6e2, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"cycle/n=3/seed=3", 2, 0x1501c962b9f46382, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"cycle/n=4/seed=1", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"cycle/n=4/seed=2", 2, 0x2ba67fb2c8ddbea6, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"cycle/n=4/seed=3", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"clique/n=3/seed=1", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"clique/n=3/seed=2", 20, 0x3bd9b72dfccb753a, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"clique/n=3/seed=3", 12, 0xe0239e476204b69e, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"clique/n=4/seed=1", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"clique/n=4/seed=2", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"clique/n=4/seed=3", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload,R3.id,R3.fk,R3.payload"},
		{"selection", 10, 0xda7ecebc6fe6d0f8, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"projection", 1773, 0xc63ab41d7e6a613c, "R2.payload,R0.id"},
		{"empty", 0, 0x0, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload,R2.id,R2.fk,R2.payload"},
		{"cross", 13818, 0xd5629f8b9cc9ecca, "R0.id,R0.fk,R0.payload,R1.id,R1.fk,R1.payload"},
	}
	cases := referenceCases()
	if len(cases) != len(golden) {
		t.Fatalf("%d cases, %d golden answers", len(cases), len(golden))
	}
	for i, c := range cases {
		e := &Executor{DB: storage.NewDatabase(c.cat, 7), Q: c.q}
		res, err := ReferenceJoin(e)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		names := make([]string, len(res.Schema))
		for j, col := range res.Schema {
			names[j] = col.String()
		}
		g := golden[i]
		if g.name != c.name {
			t.Fatalf("case %d is %s, golden answer is for %s", i, c.name, g.name)
		}
		if schema := strings.Join(names, ","); res.Len() != g.n || res.Fingerprint() != g.fp || schema != g.schema {
			t.Errorf("%s: %d rows, fingerprint %#x, schema %s; want %d, %#x, %s",
				c.name, res.Len(), res.Fingerprint(), schema, g.n, g.fp, g.schema)
		}
	}
}

// TestReferenceJoinUnknownSelectionColumn: a selection on a column the table
// lacks is the engine's typed error in the oracle too, not an index panic.
func TestReferenceJoinUnknownSelectionColumn(t *testing.T) {
	e, _ := rig(t, 20, 20)
	e.Q.Selections = []query.Selection{{Column: query.ColumnRef{Relation: "R1", Column: "nope"}, Value: 1}}
	_, err := ReferenceJoin(e)
	if err == nil || err.Error() != "engine: selection on unknown column R1.nope" {
		t.Fatalf("ReferenceJoin = %v, want the unknown-column error", err)
	}
}
