package search

import (
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// Degenerate query shapes every algorithm must handle.

func degenerateSearcher(t *testing.T, rels int, joins bool) *Searcher {
	t.Helper()
	cat := catalog.New()
	var names []string
	for i := 0; i < rels; i++ {
		name := string(rune('A' + i))
		names = append(names, name)
		cat.MustAddRelation(catalog.Relation{
			Name:    name,
			Columns: []catalog.Column{{Name: "k", NDV: 50, Width: 8}},
			Card:    100, Pages: 2, Disk: i,
		})
	}
	q := &query.Query{Relations: names}
	if joins {
		for i := 0; i+1 < rels; i++ {
			q.Joins = append(q.Joins, query.JoinPredicate{
				Left:  query.ColumnRef{Relation: names[i], Column: "k"},
				Right: query.ColumnRef{Relation: names[i+1], Column: "k"},
			})
		}
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 2, Disks: 2})
	return New(Options{
		Model:              cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:             optree.DefaultExpandOptions(),
		Annotate:           optree.DefaultAnnotateOptions(),
		AvoidCrossProducts: true,
	})
}

// TestSingleRelationQuery: every DP reduces to access-path selection (the
// oracles' half is internal/repro's).
func TestSingleRelationQuery(t *testing.T) {
	algs := []struct {
		name string
		run  func(*Searcher) (*Result, error)
	}{
		{"dp", (*Searcher).DPLeftDeep},
		{"podp", (*Searcher).PODPLeftDeep},
		{"dp-bushy", (*Searcher).DPBushy},
		{"podp-bushy", (*Searcher).PODPBushy},
	}
	for _, a := range algs {
		res, err := a.run(degenerateSearcher(t, 1, false))
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if res.Best == nil || !res.Best.Node.IsLeaf() {
			t.Errorf("%s: expected a bare access plan, got %v", a.name, res.Best)
		}
	}
}

// TestPredicatelessQuery: with no join predicates every join is a cross
// product; the cross-product heuristic must not strand the search.
func TestPredicatelessQuery(t *testing.T) {
	for _, a := range []struct {
		name string
		run  func(*Searcher) (*Result, error)
	}{
		{"dp", (*Searcher).DPLeftDeep},
		{"podp", (*Searcher).PODPLeftDeep},
		{"dp-bushy", (*Searcher).DPBushy},
	} {
		res, err := a.run(degenerateSearcher(t, 3, false))
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if res.Best == nil {
			t.Fatalf("%s: no plan for the cross-product query", a.name)
		}
		if got := len(res.Best.Node.Leaves()); got != 3 {
			t.Errorf("%s: plan covers %d relations", a.name, got)
		}
		// Cross products execute as nested loops.
		var check func(n *plan.Node)
		check = func(n *plan.Node) {
			if n.IsLeaf() {
				return
			}
			if len(n.Preds) == 0 && n.Method != plan.NestedLoops {
				t.Errorf("%s: cross product via %v", a.name, n.Method)
			}
			check(n.Left)
			check(n.Right)
		}
		check(res.Best.Node)
	}
}

// TestEmptyQueryErrors: zero relations is a caller error everywhere.
func TestEmptyQueryErrors(t *testing.T) {
	s := degenerateSearcher(t, 1, false)
	s.q = &query.Query{} // force empty
	for _, run := range []func(*Searcher) (*Result, error){
		(*Searcher).DPLeftDeep, (*Searcher).PODPLeftDeep,
		(*Searcher).DPBushy, (*Searcher).PODPBushy,
	} {
		if _, err := run(s); err == nil {
			t.Error("empty query should error")
		}
	}
}
