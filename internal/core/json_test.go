package core_test

import (
	"encoding/json"
	"testing"

	"paropt/internal/core"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/workload"
)

func TestExplainJSON(t *testing.T) {
	cat, q := workload.Portfolio(4)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{Bound: search.ThroughputDegradation{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := o.ExplainJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.PlanJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded.Algorithm == "" || decoded.RT != p.RT() || decoded.Work != p.Work() {
		t.Errorf("header fields wrong: %+v", decoded)
	}
	if decoded.Baseline == nil || decoded.Baseline.Work <= 0 {
		t.Error("bounded plan must carry its baseline")
	}
	if decoded.Tree == nil {
		t.Fatal("missing tree")
	}
	// Leaf count of the JSON tree equals the query's relation count.
	leaves := 0
	var walk func(n *core.NodeJSON)
	walk = func(n *core.NodeJSON) {
		if n == nil {
			return
		}
		if n.Left == nil && n.Right == nil {
			leaves++
			if n.Relation == "" {
				t.Error("leaf without relation")
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(decoded.Tree)
	if leaves != len(q.Relations) {
		t.Errorf("JSON tree has %d leaves, want %d", leaves, len(q.Relations))
	}
	if len(decoded.Operators) != p.Op.Count() {
		t.Errorf("operators = %d, want %d", len(decoded.Operators), p.Op.Count())
	}
	// Root operator is last (execution order) at depth 0.
	root := decoded.Operators[len(decoded.Operators)-1]
	if root.Depth != 0 {
		t.Errorf("last operator depth = %d, want 0", root.Depth)
	}
	if decoded.Search.PlansConsidered == 0 {
		t.Error("search stats missing")
	}
}

func TestExplainJSONUnbounded(t *testing.T) {
	cat, q := workload.PortfolioSmall(2)
	o, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := o.ExplainJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.PlanJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Baseline != nil {
		t.Error("unbounded plan should omit the baseline")
	}
}
