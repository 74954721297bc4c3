package search

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// benchOptions builds one reusable option set for the PODP benchmarks (the
// searcher itself is rebuilt per iteration; the model and workload are not).
func benchOptions(tb testing.TB) Options {
	tb.Helper()
	cfg := query.DefaultGenConfig()
	cfg.Relations = 6
	cfg.Shape = query.Chain
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		tb.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	return Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	}
}

// BenchmarkPODP is the search baseline: a 6-relation chain, left-deep. The
// layer records are its only telemetry, so there is no traced variant.
func BenchmarkPODP(b *testing.B) {
	opt := benchOptions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(opt).PODPLeftDeep(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchAllocBudget pins what a warm search allocates on the
// BenchmarkPODP query, where a quarter of the priced candidates are kept —
// the steady state of a process that searches, whose first search fills the
// idle slabs and workers every later one reuses. Pricing happens in scratch,
// a kept candidate lives in its search's slab and only the root cover is
// copied out: left-deep 8.9 k allocations and 5.7–6.8 MB per search (its
// covers outgrow what an idle slab keeps, slabKeep, so it still allocates
// chunks), against 43 k and 7.1 MB when every kept candidate was heap
// objects of its own, 0.139 M and 18.3 MB when it also held its new operators
// and every priced one its plan node, and 2.18 M and 198 MB when every priced
// candidate allocated its descriptor temporaries and operators; bushy, which
// re-expands multi-operator right operands, 16.7 k and 12.6–14.0 MB against
// 83 k and 13.4 MB, 0.56 M and 64 MB, and 26.7 M and 2.4 GB. The allocation
// budgets sit ≈ 10 % above today's figures, the byte budgets at or below
// their last values.
func TestSearchAllocBudget(t *testing.T) {
	opt := benchOptions(t)
	for _, tc := range []struct {
		name   string
		run    func(*Searcher) (*Result, error)
		allocs uint64
		mb     float64
	}{
		{"PODPLeftDeep", (*Searcher).PODPLeftDeep, 9_800, 7.5},
		{"PODPBushy", (*Searcher).PODPBushy, 18_400, 15},
	} {
		if _, err := tc.run(New(opt)); err != nil { // fills the idle slabs and workers
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tc.run(New(opt)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs, mb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6
		t.Logf("%s: %d allocations, %.2f MB", tc.name, allocs, mb)
		if allocs > tc.allocs || mb > tc.mb {
			t.Errorf("%s over the 6-relation chain made %d allocations / %.2f MB, budget %d / %.2f MB", tc.name, allocs, mb, tc.allocs, tc.mb)
		}
	}
}

// pairCover prices the BenchmarkPODP query's first two relations and their
// joins the way dp does, returning the cover of {R0, R1}: left operands
// whose operator trees have inputs.
func pairCover(t *testing.T, s *Searcher) *CoverSet {
	t.Helper()
	metric := s.partialMetric()
	single := s.newCover(metric)
	if err := s.extendInto(single, &nothing, s.mustLeaves(t, 0)); err != nil {
		t.Fatal(err)
	}
	pair := s.newCover(metric)
	for _, left := range single.Plans() {
		for _, leaf := range s.mustLeaves(t, 1) {
			nodes, err := s.joinNodes(left.Node, leaf)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.extendInto(pair, left, nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pair
}

func (s *Searcher) mustLeaves(t *testing.T, pos int) []*plan.Node {
	t.Helper()
	leaves, err := s.leafChoices(pos)
	if err != nil {
		t.Fatal(err)
	}
	return leaves
}

// TestDominatedCandidateAllocatesNothing pins "allocate what the cover
// keeps": building a join's plan node, pricing the join by composition and
// offering it to a cover a stored plan of which dominates it allocates
// nothing. Every join of a {R0, R1} plan with R2 is offered once, then again —
// when some stored plan (its own first copy, or what beat it) dominates it —
// under AllocsPerRun, joinNodes included.
func TestDominatedCandidateAllocatesNothing(t *testing.T) {
	s := New(benchOptions(t))
	cover := s.newCover(s.partialMetric())
	methods := map[plan.JoinMethod]bool{}
	for _, left := range pairCover(t, s).Plans() {
		for _, leaf := range s.mustLeaves(t, 2) {
			nodes, err := s.joinNodes(left.Node, leaf)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.extendInto(cover, left, nodes); err != nil {
				t.Fatal(err)
			}
			for i, n := range nodes {
				rejected := cover.Rejected
				allocs := testing.AllocsPerRun(10, func() {
					again, err := s.joinNodes(left.Node, leaf)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.extendInto(cover, left, again[i:i+1]); err != nil {
						t.Fatal(err)
					}
				})
				if cover.Rejected != rejected+11 {
					t.Fatalf("%s: re-offered plan was not dominated", n)
				}
				if allocs != 0 {
					t.Errorf("%s: pricing and offering a dominated plan made %.0f allocations, want 0", n, allocs)
				}
				methods[n.Method] = true
			}
		}
	}
	if len(methods) != len(plan.AllJoinMethods) {
		t.Fatalf("checked join methods %v, want all of %v", methods, plan.AllJoinMethods)
	}
}

// TestKeptCandidateHoldsOneOperator: what a cover keeps is a plan's root,
// not its operator tree. A kept leaf or join holds exactly one operator, its
// inputs cut and its source the candidate's own plan node, beside the
// memory estimate of the whole tree below it; a kept root, which nothing
// extends, holds none.
func TestKeptCandidateHoldsOneOperator(t *testing.T) {
	opt := benchOptions(t)
	s := New(opt)
	single := s.newCover(s.partialMetric())
	if err := s.extendInto(single, &nothing, s.mustLeaves(t, 0)); err != nil {
		t.Fatal(err)
	}
	layers := map[string][]*Candidate{"leaf": single.Plans(), "join": pairCover(t, s).Plans()}
	for name, kept := range layers {
		if len(kept) == 0 {
			t.Fatalf("no %s kept", name)
		}
		for _, c := range kept {
			if c.op == nil || c.op.Inputs != nil || c.op.Source != c.Node {
				t.Fatalf("kept %s %s holds %+v, want one operator with no inputs over its own plan node", name, c.Node, c.op)
			}
			_, whole, err := opt.Model.PlanCost(c.Node, opt.Expand, opt.Annotate)
			if err != nil {
				t.Fatal(err)
			}
			if want := opt.Model.MemoryEstimate(whole); c.mem != want {
				t.Fatalf("kept %s %s carries memory %+v, whole tree %+v", name, c.Node, c.mem, want)
			}
		}
	}
	res, err := New(opt).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Frontier {
		if c.op != nil {
			t.Fatalf("root %s holds operator %s", c.Node, c.op)
		}
	}
}

// TestKeptCandidateOutlivesScratch: a kept candidate shares nothing with the
// scratch it was priced in — neither the arena its root operator was built
// in nor the join node joinNodes built for it. Its operator, plan node and
// descriptor are the same, bit for bit, before and after a thousand more
// pricings reuse the scratch.
func TestKeptCandidateOutlivesScratch(t *testing.T) {
	s := New(benchOptions(t))
	kept := pairCover(t, s).Plans()
	descs := make([]cost.ResDescriptor, len(kept))
	ops := make([]optree.Op, len(kept))
	nodes := make([]plan.Node, len(kept))
	for i, c := range kept {
		descs[i], ops[i], nodes[i] = c.Desc.Clone(), *c.op, *c.Node
		for j := range s.joins {
			if c.Node == &s.joins[j] {
				t.Fatalf("%s: kept candidate's plan node is joinNodes' scratch", c.Node)
			}
		}
	}
	cover := s.newCover(s.partialMetric())
	for start := s.stats.PhysicalPlans; s.stats.PhysicalPlans-start < 1000; {
		for _, left := range kept {
			for _, leaf := range s.mustLeaves(t, 2) {
				nodes, err := s.joinNodes(left.Node, leaf)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.extendInto(cover, left, nodes); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, c := range kept {
		if !sameBits(c.Desc, descs[i]) || !reflect.DeepEqual(*c.op, ops[i]) || !reflect.DeepEqual(*c.Node, nodes[i]) {
			t.Fatalf("%s changed while the scratch was reused\nnow    %v %+v\n%+v\nbefore %v %+v\n%+v",
				c.Node, c.Desc, *c.op, *c.Node, descs[i], ops[i], nodes[i])
		}
	}
}

// TestModelPricesConcurrently: pricing outside a search — PlanCost, what
// core.finish, Materialize and ?why=1 run against a cached plan's Model — is
// safe on one Model from many goroutines at once, alongside searches over
// the same Model, because no scratch lives on the Model; and every result is
// bit for bit the serial one.
func TestModelPricesConcurrently(t *testing.T) {
	opt := benchOptions(t)
	serial, err := New(opt).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	const pricers = 8
	if len(serial.Frontier) < pricers {
		t.Fatalf("frontier of %d plans, want %d distinct ones", len(serial.Frontier), pricers)
	}
	type priced struct {
		desc  cost.ResDescriptor
		table string
	}
	price := func(n *plan.Node) (priced, error) {
		d, op, err := opt.Model.PlanCost(n, opt.Expand, opt.Annotate)
		if err != nil {
			return priced{}, err
		}
		return priced{d, op.AnnotationTable()}, nil
	}
	want := make([]priced, pricers)
	for i := range want {
		if want[i], err = price(serial.Frontier[i].Node); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < pricers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := price(serial.Frontier[i].Node)
				if err != nil || !sameBits(got.desc, want[i].desc) || got.table != want[i].table {
					t.Errorf("%s priced concurrently: %v %v\n%s, serially %v\n%s", serial.Frontier[i].Node, err, got.desc, got.table, want[i].desc, want[i].table)
					return
				}
			}
		}()
	}
	searches := make([]*Result, 2)
	for i := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if searches[i], err = New(opt).PODPLeftDeep(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, res := range searches {
		if res == nil || len(res.Frontier) != len(serial.Frontier) {
			t.Fatal("a concurrent search's frontier differs in size from the serial one")
		}
		for i, c := range res.Frontier {
			if c.Node.String() != serial.Frontier[i].Node.String() || !sameBits(c.Desc, serial.Frontier[i].Desc) {
				t.Fatalf("frontier member %d: concurrent %s %v, serial %s %v", i, c.Node, c.Desc, serial.Frontier[i].Node, serial.Frontier[i].Desc)
			}
		}
	}
}
