package workload

import (
	"testing"

	"paropt/internal/engine"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

func TestPortfolioValid(t *testing.T) {
	cat, q := Portfolio(4)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	if got := cat.NumRelations(); got != 5 {
		t.Fatalf("relations = %d, want 5", got)
	}
	if !q.Connected(query.FullSet(len(q.Relations))) {
		t.Error("portfolio query must be connected")
	}
	// Star hub: trades joins three dimensions directly.
	hub := 0
	for _, j := range q.Joins {
		if j.Touches("trades") {
			hub++
		}
	}
	if hub != 3 {
		t.Errorf("trades participates in %d joins, want 3", hub)
	}
}

func TestPortfolioSingleDisk(t *testing.T) {
	cat, q := Portfolio(1)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.RelationNames() {
		if d := cat.MustRelation(name).Disk; d != 0 {
			t.Errorf("relation %s on disk %d with 1 disk", name, d)
		}
	}
}

func TestPortfolioSmallExecutes(t *testing.T) {
	cat, q := PortfolioSmall(2)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	if cat.MustRelation("trades").Card > 10_000 {
		t.Error("small portfolio should be scaled down")
	}
	db := storage.NewDatabase(cat, 1)
	est := plan.NewEstimator(cat, q)
	e := &engine.Executor{DB: db, Q: q, Parallel: 2}
	// Left-deep plan in declaration order.
	var cur *plan.Node
	for i, rel := range q.Relations {
		leaf, err := est.Leaf(rel, plan.SeqScan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cur = leaf
			continue
		}
		j, err := est.Join(cur, leaf, plan.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		cur = j
	}
	res, err := e.Execute(cur)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Error("portfolio execution differs from reference")
	}
}
