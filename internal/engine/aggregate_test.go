package engine

import (
	"testing"

	"paropt/internal/query"
	"paropt/internal/storage"
)

func aggFixture() *Resultset {
	s := Schema{
		{Relation: "R", Column: "cat"},
		{Relation: "R", Column: "amt"},
	}
	return resultOf(s, []storage.Row{
		{2, 10}, {1, 5}, {2, 20}, {1, 7}, {3, 1},
	})
}

func TestGroupBy(t *testing.T) {
	r := aggFixture()
	groups, err := r.GroupBy(
		[]query.ColumnRef{{Relation: "R", Column: "cat"}},
		query.ColumnRef{Relation: "R", Column: "amt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	want := []GroupedRow{
		{Key: []int64{1}, Count: 2, Sum: 12},
		{Key: []int64{2}, Count: 2, Sum: 30},
		{Key: []int64{3}, Count: 1, Sum: 1},
	}
	for i, g := range groups {
		if g.Key[0] != want[i].Key[0] || g.Count != want[i].Count || g.Sum != want[i].Sum {
			t.Errorf("group %d = %+v, want %+v", i, g, want[i])
		}
	}
}

func TestGroupByMultiKey(t *testing.T) {
	s := Schema{
		{Relation: "R", Column: "a"},
		{Relation: "R", Column: "b"},
		{Relation: "R", Column: "v"},
	}
	r := resultOf(s, []storage.Row{
		{1, 1, 10}, {1, 2, 20}, {1, 1, 30},
	})
	groups, err := r.GroupBy(
		[]query.ColumnRef{{Relation: "R", Column: "a"}, {Relation: "R", Column: "b"}},
		query.ColumnRef{Relation: "R", Column: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Sum != 40 || groups[1].Sum != 20 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestGroupByErrors(t *testing.T) {
	r := aggFixture()
	if _, err := r.GroupBy(nil, query.ColumnRef{Relation: "R", Column: "amt"}); err == nil {
		t.Error("no keys should error")
	}
	if _, err := r.GroupBy(
		[]query.ColumnRef{{Relation: "Z", Column: "z"}},
		query.ColumnRef{Relation: "R", Column: "amt"}); err == nil {
		t.Error("unknown key should error")
	}
	if _, err := r.GroupBy(
		[]query.ColumnRef{{Relation: "R", Column: "cat"}},
		query.ColumnRef{Relation: "Z", Column: "z"}); err == nil {
		t.Error("unknown aggregate column should error")
	}
}

func TestGroupByEmptyResult(t *testing.T) {
	r := &Resultset{Schema: aggFixture().Schema}
	groups, err := r.GroupBy(
		[]query.ColumnRef{{Relation: "R", Column: "cat"}},
		query.ColumnRef{Relation: "R", Column: "amt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Errorf("empty input produced %d groups", len(groups))
	}
}
