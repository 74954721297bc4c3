package paropt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"paropt"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/sim"
	"paropt/internal/storage"
)

// smallWorkload generates a catalog/query pair small enough to execute
// in-memory and cross-check against brute-force evaluation.
func smallWorkload(shape query.Shape, n int, seed int64) (*paropt.Catalog, *paropt.Query) {
	return paropt.Generate(paropt.GenConfig{
		Relations: n, Shape: shape,
		MinCard: 50, MaxCard: 400,
		Disks: 4, IndexProb: 0.5, SortedProb: 0.3, Seed: seed,
	})
}

// randomBushyPlan builds a random bushy plan with random methods over the
// query, using only legal joins (cross products via nested loops). A relation
// the catalog indexed is read through one of its indexes half the time, so
// index-order leaves — and the sorts the expansion elides over them — reach
// every execution path.
func randomBushyPlan(est *plan.Estimator, q *paropt.Query, rng *rand.Rand) (*plan.Node, error) {
	perm := rng.Perm(len(q.Relations))
	nodes := make([]*plan.Node, len(perm))
	for i, pos := range perm {
		access, idx := plan.SeqScan, (*paropt.Index)(nil)
		if ixs := est.Cat.IndexesOn(q.Relations[pos]); len(ixs) > 0 && rng.Intn(2) == 0 {
			access, idx = plan.IndexScan, ixs[rng.Intn(len(ixs))]
		}
		leaf, err := est.Leaf(q.Relations[pos], access, idx)
		if err != nil {
			return nil, err
		}
		nodes[i] = leaf
	}
	for len(nodes) > 1 {
		i := rng.Intn(len(nodes) - 1)
		method := plan.AllJoinMethods[rng.Intn(3)]
		if len(est.Q.JoinsBetween(nodes[i].Rels, nodes[i+1].Rels)) == 0 {
			method = plan.NestedLoops
		}
		j, err := est.Join(nodes[i], nodes[i+1], method)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes[:i], append([]*plan.Node{j}, nodes[i+2:]...)...)
	}
	return nodes[0], nil
}

// setJoinNDV sets the NDV of every generated relation's join columns, id and
// fk, to ndv. paropt.Generate joins id (NDV = card) to fk around the whole
// graph, so a cycle's closing predicate leaves one row or none;
// storage.Generate draws each column uniformly in [0, NDV), so small join
// NDVs keep the result non-empty.
func setJoinNDV(cat *paropt.Catalog, ndv int64) {
	for _, name := range cat.RelationNames() {
		cols := cat.MustRelation(name).Columns
		for i := range cols {
			if cols[i].Name == "id" || cols[i].Name == "fk" {
				cols[i].NDV = ndv
			}
		}
	}
}

// TestIntegrationEveryPlanSameResult is the repository's central semantic
// property: for random workloads and random plans, join-tree execution,
// operator-tree execution — serial, at the annotated clone degrees under
// several caps, and over a loopback cluster — and brute-force reference
// evaluation all agree. Every shape's reference result has rows, so a wrong
// join cannot pass by returning nothing.
func TestIntegrationEveryPlanSameResult(t *testing.T) {
	lb, err := exchange.StartLoopback(2, engine.FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	// One clone per 100 tuples spreads the 50–400-row tables over degrees
	// 1..4; at the default 10 000 nothing would clone.
	m := machine.New(machine.Config{CPUs: 4, Disks: 4})
	annotate := optree.AnnotateOptions{MinTuplesPerClone: 100}
	rng := rand.New(rand.NewSource(99))
	indexLeaves, elidedSorts := 0, 0
	degrees := map[int]int{}
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle} {
		for n := 3; n <= 4; n++ {
			cat, q := smallWorkload(shape, n, int64(n)*7+int64(shape))
			if shape == query.Cycle {
				setJoinNDV(cat, 20)
			}
			db := storage.NewDatabase(cat, 3)
			est := plan.NewEstimator(cat, q)
			e := &engine.Executor{DB: db, Q: q, Parallel: 1}
			ref, err := engine.ReferenceJoin(e)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Len() < 10 {
				t.Fatalf("%v/n=%d: reference result has %d rows, want at least 10", shape, n, ref.Len())
			}
			want := ref.Fingerprint()
			for trial := 0; trial < 6; trial++ {
				p, err := randomBushyPlan(est, q, rng)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/n=%d/trial=%d plan=%s", shape, n, trial, p)
				got, err := e.Execute(p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.Fingerprint() != want {
					t.Fatalf("%s: join-tree result differs from reference (%d vs %d rows)",
						label, got.Len(), ref.Len())
				}
				op, err := optree.Expand(p, est, optree.DefaultExpandOptions())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				op.Walk(func(o *optree.Op) {
					if o.Kind == optree.IndexScanOp {
						indexLeaves++
					}
					if o.Kind == optree.Merge && (o.Inputs[0].Kind != optree.Sort || o.Inputs[1].Kind != optree.Sort) {
						elidedSorts++
					}
				})
				gotOp, err := e.ExecuteOp(op)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotOp.Fingerprint() != want {
					t.Fatalf("%s: operator-tree result differs from reference", label)
				}
				// Parallel execution agrees too.
				e.Parallel = 3
				gotPar, err := e.Execute(p)
				e.Parallel = 1
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotPar.Fingerprint() != want {
					t.Fatalf("%s: parallel result differs from reference", label)
				}
				// The priced tree, at its annotated degrees: capped locally,
				// and distributed.
				optree.Annotate(op, m, est, annotate)
				op.Walk(func(o *optree.Op) {
					if len(o.Preds) > 0 {
						degrees[o.Clone.Degree()]++
					}
				})
				for _, path := range []struct {
					parallel int
					tr       exchange.Transport
				}{{1, nil}, {2, nil}, {3, nil}, {4, lb.Cluster(exchange.ClusterConfig{})}} {
					e.Parallel, e.Transport = path.parallel, path.tr
					gotAnn, err := e.ExecuteOp(op)
					e.Parallel, e.Transport = 1, nil
					if err != nil {
						t.Fatalf("%s: annotated, cap %d: %v", label, path.parallel, err)
					}
					if gotAnn.Fingerprint() != want {
						t.Fatalf("%s: annotated tree at cap %d (distributed %t) differs from reference", label, path.parallel, path.tr != nil)
					}
				}
			}
		}
	}
	// The generator, not a fixture, must put index-order leaves and the merges
	// that trust their order in front of the lowered operators.
	if indexLeaves == 0 || elidedSorts == 0 {
		t.Fatalf("random plans had %d index-scan leaves and %d merges with an elided sort; the generator no longer covers them", indexLeaves, elidedSorts)
	}
	for d := 1; d <= 4; d++ {
		if degrees[d] == 0 {
			t.Fatalf("annotated joins by degree %v: no join at degree %d", degrees, d)
		}
	}
	t.Logf("%d index-scan leaves, %d merges with an elided sort, annotated joins by degree %v", indexLeaves, elidedSorts, degrees)
}

// TestIntegrationOptimizerPlansExecuteCorrectly: every algorithm's chosen
// plan computes the reference result.
func TestIntegrationOptimizerPlansExecuteCorrectly(t *testing.T) {
	cat, q := smallWorkload(query.Star, 4, 21)
	db := storage.NewDatabase(cat, 9)
	e := &engine.Executor{DB: db, Q: q, Parallel: 1}
	ref, err := engine.ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []paropt.Algorithm{
		paropt.PartialOrderDP, paropt.PartialOrderDPBushy, paropt.WorkDP,
		paropt.NaiveRTDP, paropt.TwoPhase, paropt.SimulatedAnnealing,
	} {
		opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := paropt.Optimize(opt, paropt.Run{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got, err := opt.Execute(p, db, 2)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.Fingerprint() != ref.Fingerprint() {
			t.Errorf("%v: optimized plan computes a different result", alg)
		}
	}
}

// TestIntegrationModelSimulatorWorkAgreement: for optimizer plans across
// algorithms, model work and simulated work agree exactly.
func TestIntegrationModelSimulatorWorkAgreement(t *testing.T) {
	cat, q := smallWorkload(query.Chain, 5, 4)
	for _, alg := range []paropt.Algorithm{paropt.PartialOrderDP, paropt.WorkDP} {
		opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := paropt.Optimize(opt, paropt.Run{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(p.Op, opt.Mod)
		if err != nil {
			t.Fatal(err)
		}
		if diff := res.Work - p.Work(); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%v: sim work %g != model work %g", alg, res.Work, p.Work())
		}
		if res.RT > p.Work()+1e-9 {
			t.Errorf("%v: simulated RT exceeds total work", alg)
		}
	}
}
