package workload

import (
	"testing"

	"paropt/internal/core"
	"paropt/internal/engine"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/storage"
)

func TestTPCHLikeValid(t *testing.T) {
	cat, queries := TPCHLike(4, 1)
	if cat.NumRelations() != 6 {
		t.Fatalf("relations = %d, want 6", cat.NumRelations())
	}
	if len(queries) != 3 {
		t.Fatalf("queries = %d, want 3", len(queries))
	}
	for _, q := range queries {
		if err := q.Validate(cat); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if !q.Connected(query.FullSet(len(q.Relations))) {
			t.Errorf("%s: join graph disconnected", q.Name)
		}
	}
	// Fact table dwarfs dimensions.
	li := cat.MustRelation("lineitem")
	if li.Card <= cat.MustRelation("nation").Card {
		t.Error("lineitem should dominate")
	}
}

func TestTPCHLikeScaling(t *testing.T) {
	cat1, _ := TPCHLike(2, 1)
	cat2, _ := TPCHLike(2, 2)
	if cat2.MustRelation("lineitem").Card != 2*cat1.MustRelation("lineitem").Card {
		t.Error("scale factor should scale cardinalities linearly")
	}
	// Degenerate inputs clamp.
	cat0, qs := TPCHLike(0, -1)
	if cat0.NumRelations() != 6 || len(qs) != 3 {
		t.Error("degenerate inputs should clamp")
	}
}

func TestTPCHLikeOptimizes(t *testing.T) {
	cat, queries := TPCHLike(4, 1)
	for _, q := range queries {
		o, err := core.NewOptimizer(cat, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := repro.Optimize(o, repro.Run{})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if p.RT() <= 0 {
			t.Errorf("%s: rt = %g", q.Name, p.RT())
		}
		if got := len(p.Tree.Leaves()); got != len(q.Relations) {
			t.Errorf("%s: plan covers %d relations, want %d", q.Name, got, len(q.Relations))
		}
	}
}

func TestTPCHLikeExecutes(t *testing.T) {
	cat, queries := TPCHLike(2, 0.2) // tiny for brute-force reference
	db := storage.NewDatabase(cat, 13)
	for _, q := range queries[:1] { // Q3: 3 relations, cheap reference
		o, err := core.NewOptimizer(cat, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := repro.Optimize(o, repro.Run{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Execute(p, db, 2)
		if err != nil {
			t.Fatal(err)
		}
		e := &engine.Executor{DB: db, Q: q, Parallel: 1}
		ref, err := engine.ReferenceJoin(e)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != ref.Fingerprint() {
			t.Errorf("%s: optimized result differs from reference", q.Name)
		}
	}
}
