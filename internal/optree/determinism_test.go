package optree

import (
	"math/rand"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/machine"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// TestExpandDeterministic: expanding the same plan twice yields identical
// trees — the paper's "each annotated join tree is expanded to a *unique*
// operator tree".
func TestExpandDeterministic(t *testing.T) {
	_, _, e := fixture(t)
	p := example1Plan(t, e)
	a, err := Expand(p, e, DefaultExpandOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Expand(p, e, DefaultExpandOptions())
	if a.String() != b.String() {
		t.Fatalf("expansion not deterministic: %s vs %s", a, b)
	}
	if a.Count() != b.Count() {
		t.Fatal("structure differs")
	}
}

// TestAnnotateDeterministic: annotation is a pure function of the tree and
// options.
func TestAnnotateDeterministic(t *testing.T) {
	_, _, e := fixture(t)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4})
	mk := func() string {
		op, err := Expand(example1Plan(t, e), e, DefaultExpandOptions())
		if err != nil {
			t.Fatal(err)
		}
		Annotate(op, m, e, DefaultAnnotateOptions())
		return op.AnnotationTable()
	}
	if mk() != mk() {
		t.Fatal("annotation not deterministic")
	}
}

// TestQuickExpansionInvariants: for random plans over the fixture query,
// the expansion (1) validates, (2) has exactly one base access per plan
// leaf, (3) keeps join cardinalities, and (4) puts a materialized edge
// under every blocking operator.
func TestQuickExpansionInvariants(t *testing.T) {
	_, q, e := fixture(t)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		p := randomPlanOver(t, e, q, rng)
		op, err := Expand(p, e, DefaultExpandOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := op.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		leaves := 0
		op.Walk(func(o *Op) {
			switch o.Kind {
			case Scan, IndexScanOp:
				leaves++
			case Sort, Build, CreateIndex:
				if o.Composition != Materialized {
					t.Fatalf("trial %d: blocking op %v not materialized", trial, o.Kind)
				}
			}
		})
		if want := len(p.Leaves()); leaves != want {
			t.Fatalf("trial %d: %d base accesses, want %d", trial, leaves, want)
		}
		if op.OutCard != p.Card {
			t.Fatalf("trial %d: root card %d != plan card %d", trial, op.OutCard, p.Card)
		}
	}
}

// randomPlanOver builds a random bushy plan over the fixture's relations.
func randomPlanOver(t *testing.T, e *plan.Estimator, q *query.Query, rng *rand.Rand) *plan.Node {
	t.Helper()
	perm := rng.Perm(len(q.Relations))
	nodes := make([]*plan.Node, len(perm))
	for i, pos := range perm {
		access, ix := plan.SeqScan, (*catalog.Index)(nil)
		if ixs := e.Cat.IndexesOn(q.Relations[pos]); len(ixs) > 0 && rng.Intn(2) == 0 {
			access, ix = plan.IndexScan, ixs[0]
		}
		leaf, err := e.Leaf(q.Relations[pos], access, ix)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = leaf
	}
	for len(nodes) > 1 {
		i := rng.Intn(len(nodes) - 1)
		m := plan.AllJoinMethods[rng.Intn(3)]
		if len(q.JoinsBetween(nodes[i].Rels, nodes[i+1].Rels)) == 0 {
			m = plan.NestedLoops
		}
		j, err := e.Join(nodes[i], nodes[i+1], m)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes[:i], append([]*plan.Node{j}, nodes[i+2:]...)...)
	}
	return nodes[0]
}

// TestQuickCloneAttributesCanonical: over generated queries of every shape
// and random plans over them, index scans included, annotation leaves every
// operator's partitioning attribute, and every redistributed edge's target,
// canonical — est.Canon of itself. needsRedistribution and edges compare and
// copy the attributes as they are on the strength of it.
func TestQuickCloneAttributesCanonical(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 4, Disks: 4})
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := query.DefaultGenConfig()
			cfg.Relations, cfg.Shape, cfg.Seed = 5, shape, seed
			cat, q := query.Generate(cfg)
			est := plan.NewEstimator(cat, q)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				op, err := Expand(randomPlanOver(t, est, q, rng), est, DefaultExpandOptions())
				if err != nil {
					t.Fatal(err)
				}
				Annotate(op, m, est, DefaultAnnotateOptions())
				op.Walk(func(o *Op) {
					if a := o.Clone.Attribute; est.Canon(a) != a {
						t.Fatalf("%v seed %d: %s partitioned on %v, canonical %v", shape, seed, o.Kind, a, est.Canon(a))
					}
					if a := o.RedistAttr; o.Redistribute && est.Canon(a) != a {
						t.Fatalf("%v seed %d: %s redistributed on %v, canonical %v", shape, seed, o.Kind, a, est.Canon(a))
					}
				})
			}
		}
	}
}
