package cost

import (
	"math"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// fixture: R1 (50k) ⋈ R2 (40k) ⋈ R3 (30k) chain on a 4-CPU, 4-disk machine.
func fixture(t *testing.T, cpus, disks int) (*Model, *plan.Estimator) {
	t.Helper()
	cat := catalog.New()
	for i, card := range []int64{50_000, 40_000, 30_000} {
		name := []string{"R1", "R2", "R3"}[i]
		cat.MustAddRelation(catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", NDV: card, Width: 8},
				{Name: "fk", NDV: card / 10, Width: 8},
			},
			Card:  card,
			Pages: card / 50,
			Disk:  i,
		})
	}
	q := &query.Query{
		Name:      "m3",
		Relations: []string{"R1", "R2", "R3"},
		Joins: []query.JoinPredicate{
			{Left: query.ColumnRef{Relation: "R1", Column: "id"}, Right: query.ColumnRef{Relation: "R2", Column: "fk"}},
			{Left: query.ColumnRef{Relation: "R2", Column: "id"}, Right: query.ColumnRef{Relation: "R3", Column: "fk"}},
		},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(machine.Config{CPUs: cpus, Disks: disks, Networks: 1})
	return NewModel(cat, m, est, DefaultParams()), est
}

func example1Op(t *testing.T, m *Model, est *plan.Estimator) *optree.Op {
	t.Helper()
	r1, _ := est.Leaf("R1", plan.SeqScan, nil)
	r2, _ := est.Leaf("R2", plan.SeqScan, nil)
	r3, _ := est.Leaf("R3", plan.SeqScan, nil)
	sm, _ := est.Join(r1, r2, plan.SortMerge)
	nl, err := est.Join(sm, r3, plan.NestedLoops)
	if err != nil {
		t.Fatal(err)
	}
	op, err := optree.Expand(nl, est, optree.DefaultExpandOptions())
	if err != nil {
		t.Fatal(err)
	}
	optree.Annotate(op, m.M, est, optree.DefaultAnnotateOptions())
	return op
}

func TestDescriptorSanity(t *testing.T) {
	m, est := fixture(t, 4, 4)
	op := example1Op(t, m, est)
	d := m.Descriptor(op)
	if d.RT() <= 0 {
		t.Fatalf("RT = %g, want > 0", d.RT())
	}
	if d.Work() <= 0 {
		t.Fatalf("Work = %g, want > 0", d.Work())
	}
	if d.RT() > d.Work()+1e-9 {
		t.Errorf("RT (%g) must not exceed total work (%g): parallelism only saves time", d.RT(), d.Work())
	}
	if d.First.T > d.Last.T {
		t.Errorf("first tuple (%g) after last tuple (%g)", d.First.T, d.Last.T)
	}
	if got, want := len(d.Last.W), m.Dim(); got != want {
		t.Errorf("vector dim = %d, want %d", got, want)
	}
	if m.RT(op) != d.RT() || m.Work(op) != d.Work() {
		t.Error("RT/Work helpers disagree with Descriptor")
	}
}

// TestParallelMachineBeatsSequential: the same operator tree on more CPUs
// and disks must have RT no worse than on a 1-CPU, 1-disk machine, while
// total work does not shrink.
func TestParallelMachineBeatsSequential(t *testing.T) {
	mp, estP := fixture(t, 4, 4)
	ms, estS := fixture(t, 1, 1)
	dp := mp.Descriptor(example1Op(t, mp, estP))
	ds := ms.Descriptor(example1Op(t, ms, estS))
	if dp.RT() >= ds.RT() {
		t.Errorf("parallel RT %g should beat sequential RT %g", dp.RT(), ds.RT())
	}
	if dp.Work() < ds.Work()-1e-9 {
		t.Errorf("parallel work %g must not be below sequential %g (cloning adds overhead)", dp.Work(), ds.Work())
	}
}

// TestDesideratum3Cloning: response time of a cloned CPU-bound operator
// scales down roughly linearly with the cloning degree (CPE ≈ IPE of the
// clones).
func TestDesideratum3Cloning(t *testing.T) {
	m, _ := fixture(t, 8, 4)
	m.P.CloneOverhead = 0
	m.P.SortMemPages = 1 << 40 // in-memory sort: pure CPU
	mkSort := func(deg int) *optree.Op {
		scan := &optree.Op{Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16}
		sort := &optree.Op{
			Kind: optree.Sort, Inputs: []*optree.Op{scan},
			Composition: optree.Materialized, InCard: 50_000, OutCard: 50_000, Width: 16,
		}
		res := make([]machine.ResourceID, deg)
		for i := range res {
			res[i] = m.M.CPUFor(i)
		}
		sort.Clone = optree.Cloning{Resources: res}
		return sort
	}
	rt1 := m.Descriptor(mkSort(1)).Last.T
	rt4 := m.Descriptor(mkSort(4)).Last.T
	// The scan's disk I/O is shared, so measure the sort's own contribution.
	scanOnly := m.Descriptor(&optree.Op{Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16}).Last.T
	speedup := (rt1 - scanOnly) / (rt4 - scanOnly)
	if speedup < 3.0 || speedup > 4.5 {
		t.Errorf("4-way cloning speedup = %.2f, want ≈ 4", speedup)
	}
}

func TestCloneOverheadIncreasesWork(t *testing.T) {
	m, est := fixture(t, 4, 4)
	op := example1Op(t, m, est)
	m.P.CloneOverhead = 0
	w0 := m.Work(op)
	m.P.CloneOverhead = 0.1
	w1 := m.Work(op)
	if w1 <= w0 {
		t.Errorf("overhead should increase work: %g vs %g", w1, w0)
	}
}

func TestPipelinePenaltyIncreasesRT(t *testing.T) {
	m, est := fixture(t, 1, 1) // one disk+CPU: maximal contention
	op := example1Op(t, m, est)
	m.P.PipelineK = 0
	rt0 := m.RT(op)
	m.P.PipelineK = 2
	rt2 := m.RT(op)
	if rt2 < rt0 {
		t.Errorf("δ(k) must not reduce RT: k=0 → %g, k=2 → %g", rt0, rt2)
	}
	if m.Work(op) <= 0 {
		t.Error("work must stay positive")
	}
}

func TestIndexScanCosting(t *testing.T) {
	m, est := fixture(t, 2, 4)
	clustered := m.Cat.MustAddIndex
	clustered(catalog.Index{Name: "R1_c", Relation: "R1", Columns: []string{"id"}, Clustered: true, Disk: 0})
	m.Cat.MustAddIndex(catalog.Index{Name: "R1_u", Relation: "R1", Columns: []string{"id"}, Disk: 1})
	cIdx, _ := m.Cat.Index("R1_c")
	uIdx, _ := m.Cat.Index("R1_u")
	lc, err := est.Leaf("R1", plan.IndexScan, cIdx)
	if err != nil {
		t.Fatal(err)
	}
	lu, _ := est.Leaf("R1", plan.IndexScan, uIdx)
	oc, _ := optree.Expand(lc, est, optree.ExpandOptions{})
	ou, _ := optree.Expand(lu, est, optree.ExpandOptions{})
	wc, wu := m.Work(oc), m.Work(ou)
	if wu <= wc {
		t.Errorf("unclustered full scan (%g) should cost more than clustered (%g)", wu, wc)
	}
}

func TestNestedLoopsInnerVariants(t *testing.T) {
	m, est := fixture(t, 2, 4)
	r1, _ := est.Leaf("R1", plan.SeqScan, nil)
	r3, _ := est.Leaf("R3", plan.SeqScan, nil)
	nl, _ := est.Join(r1, r3, plan.NestedLoops) // cross-ish: no direct pred? R1-R3 not joined
	// R1 and R3 are not directly joined: Preds empty, so no create-index.
	opNoIdx, err := optree.Expand(nl, est, optree.DefaultExpandOptions())
	if err != nil {
		t.Fatal(err)
	}
	rescan := m.Work(opNoIdx)

	// With a direct predicate (R2-R3), create-index kicks in and beats rescan.
	r2, _ := est.Leaf("R2", plan.SeqScan, nil)
	r3b, _ := est.Leaf("R3", plan.SeqScan, nil)
	nl2, _ := est.Join(r2, r3b, plan.NestedLoops)
	opIdx, _ := optree.Expand(nl2, est, optree.DefaultExpandOptions())
	if opIdx.Inputs[1].Kind != optree.CreateIndex {
		t.Fatalf("expected create-index inner, got %v", opIdx.Inputs[1].Kind)
	}
	indexed := m.Work(opIdx)
	if indexed >= rescan {
		t.Errorf("indexed NL (%g) should be cheaper than rescanning NL (%g)", indexed, rescan)
	}
}

func TestMaterializedInnerRescanned(t *testing.T) {
	m, est := fixture(t, 2, 4)
	// Bushy: R1 NL (R2 ⋈HJ R3) — the inner join subtree must materialize.
	r1, _ := est.Leaf("R1", plan.SeqScan, nil)
	r2, _ := est.Leaf("R2", plan.SeqScan, nil)
	r3, _ := est.Leaf("R3", plan.SeqScan, nil)
	inner, _ := est.Join(r2, r3, plan.HashJoin)
	nl, _ := est.Join(r1, inner, plan.NestedLoops)
	op, err := optree.Expand(nl, est, optree.ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if op.Inputs[1].Composition != optree.Materialized {
		t.Fatal("non-base NL inner must be materialized")
	}
	if d := m.Descriptor(op); d.RT() <= 0 {
		t.Error("descriptor must be positive")
	}
}

func TestRedistributionCost(t *testing.T) {
	m, est := fixture(t, 4, 4)
	op := example1Op(t, m, est)
	var flagged *optree.Op
	op.Walk(func(o *optree.Op) {
		if flagged == nil && o.Redistribute {
			flagged = o
		}
	})
	if flagged == nil {
		t.Skip("no redistribution edge in this annotation")
	}
	with := m.Work(op)
	// Clearing the flags must reduce work by the network transfer.
	op.Walk(func(o *optree.Op) { o.Redistribute = false })
	without := m.Work(op)
	if with <= without {
		t.Errorf("redistribution must add work: %g vs %g", with, without)
	}
}

func TestRedistributionWithoutNetwork(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "A", Columns: []catalog.Column{{Name: "k", NDV: 1000, Width: 8}},
		Card: 1000, Pages: 20,
	})
	q := &query.Query{Relations: []string{"A"}}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	mm := machine.New(machine.Config{CPUs: 2, Disks: 1}) // no network
	m := NewModel(cat, mm, est, DefaultParams())
	scan := &optree.Op{Kind: optree.Scan, Relation: "A", OutCard: 1000, Width: 8, Redistribute: true}
	sort := &optree.Op{
		Kind: optree.Sort, Inputs: []*optree.Op{scan},
		Composition: optree.Materialized, InCard: 1000, OutCard: 1000, Width: 8,
	}
	d := m.Descriptor(sort)
	if d.RT() <= 0 {
		t.Error("shared-memory redistribution should still cost CPU")
	}
}

// multiNodeFixture builds the fixture catalog on a shared-nothing machine.
func multiNodeFixture(t *testing.T, nodes, cpus, disks int, lat float64) (*Model, *plan.Estimator) {
	t.Helper()
	m, est := fixture(t, cpus, disks)
	mm := machine.New(machine.Config{CPUs: cpus, Disks: disks, Nodes: nodes, NetLatency: lat})
	return NewModel(m.Cat, mm, est, DefaultParams()), est
}

// TestCrossNodeRedistributionLocalIsFree: a repartition whose producers and
// consumers are the same single node never touches the interconnect, while a
// cross-node repartition charges network links on every involved node.
func TestCrossNodeRedistributionLocalIsFree(t *testing.T) {
	m, _ := multiNodeFixture(t, 4, 2, 2, 0)
	mm := m.M
	// cpus are node-major: [0,1]=n0, [2,3]=n1, ...
	n0cpus := mm.CPUs()[:2]
	local := &optree.Op{
		Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16,
		Redistribute: true, RedistTargets: []int{0},
		Clone: optree.Cloning{Resources: n0cpus},
	}
	if w := m.TransferDemands(local).Sum(); w != 0 {
		t.Errorf("node-local repartition charged %g network work, want 0", w)
	}
	cross := &optree.Op{
		Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16,
		Redistribute: true, RedistTargets: []int{0, 1, 2, 3},
		Clone: optree.Cloning{Resources: n0cpus},
	}
	w := m.TransferDemands(cross)
	if w.Sum() <= 0 {
		t.Fatal("cross-node repartition must charge the interconnect")
	}
	// All charged components must be network links; CPUs stay clean.
	for id, v := range w {
		if v > 0 && mm.Resource(machine.ResourceID(id)).Kind != machine.Network {
			t.Errorf("resource %s charged %g; only network links should pay", mm.Resource(machine.ResourceID(id)).Name, v)
		}
	}
	// Producer node 0 sends 3/4 of the stream out; each consumer-only node
	// receives 1/4. Node 0's link must carry the most traffic.
	l0, _ := mm.LinkFor(0)
	l1, _ := mm.LinkFor(1)
	if w[int(l0)] <= w[int(l1)] {
		t.Errorf("producer link %g should exceed consumer link %g", w[int(l0)], w[int(l1)])
	}
}

// TestCrossNodeLatencyChargedOnce: the link startup latency raises the
// transfer's response time but not its work.
func TestCrossNodeLatencyChargedOnce(t *testing.T) {
	build := func(lat float64) ResDescriptor {
		m, _ := multiNodeFixture(t, 2, 1, 1, lat)
		op := &optree.Op{
			Kind: optree.Scan, Relation: "R1", OutCard: 10_000, Width: 16,
			Redistribute: true, RedistTargets: []int{0, 1},
			Clone: optree.Cloning{Resources: []machine.ResourceID{m.M.CPUs()[0]}},
		}
		return m.redistribution(new(Scratch), op)
	}
	flat := build(0)
	slow := build(3)
	if got, want := slow.Last.T-flat.Last.T, 3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("latency raised transfer time by %g, want %g", got, want)
	}
	if math.Abs(slow.Last.W.Sum()-flat.Last.W.Sum()) > 1e-9 {
		t.Error("latency must not change work")
	}
}

// TestNetworkDimensionMakesPlansIncomparable: on a multi-node machine a
// repartitioned tree and a local tree load disjoint resource-vector
// components (network vs nothing), so neither dominates — the §2 partial
// order must keep both (larger cover sets).
func TestNetworkDimensionMakesPlansIncomparable(t *testing.T) {
	m, _ := multiNodeFixture(t, 4, 2, 2, 0)
	mkScan := func(redist bool) *optree.Op {
		op := &optree.Op{
			Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16,
			Clone: optree.Cloning{Resources: m.M.CPUs()[:2]},
		}
		if redist {
			op.Redistribute = true
			op.RedistTargets = []int{0, 1, 2, 3}
		}
		return op
	}
	sortOver := func(scan *optree.Op) *optree.Op {
		res := scan.Clone.Resources
		if scan.Redistribute {
			res = []machine.ResourceID{m.M.CPUs()[0], m.M.CPUs()[2], m.M.CPUs()[4], m.M.CPUs()[6]}
		}
		return &optree.Op{
			Kind: optree.Sort, Inputs: []*optree.Op{scan},
			Composition: optree.Materialized, InCard: 50_000, OutCard: 50_000, Width: 16,
			Clone: optree.Cloning{Resources: res},
		}
	}
	local := m.Descriptor(sortOver(mkScan(false)))
	repart := m.Descriptor(sortOver(mkScan(true)))
	le := func(a, b ResDescriptor) bool {
		if a.First.T > b.First.T+1e-9 || a.Last.T > b.Last.T+1e-9 {
			return false
		}
		for i := range a.Last.W {
			if a.First.W[i] > b.First.W[i]+1e-9 || a.Last.W[i] > b.Last.W[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if le(local, repart) || le(repart, local) {
		t.Errorf("local and repartitioned descriptors must be incomparable:\nlocal  %v\nrepart %v", local.Last.W, repart.Last.W)
	}
}

func TestExternalSortPaysIO(t *testing.T) {
	m, _ := fixture(t, 1, 2)
	sortOf := func(memPages int64) float64 {
		m.P.SortMemPages = memPages
		scan := &optree.Op{Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16}
		s := &optree.Op{
			Kind: optree.Sort, Inputs: []*optree.Op{scan},
			Composition: optree.Materialized, InCard: 50_000, OutCard: 50_000, Width: 16,
		}
		return m.Work(s)
	}
	inMem := sortOf(1 << 40)
	external := sortOf(1)
	if external <= inMem {
		t.Errorf("external sort (%g) must cost more than in-memory (%g)", external, inMem)
	}
}

func TestPlanCost(t *testing.T) {
	m, est := fixture(t, 4, 4)
	r1, _ := est.Leaf("R1", plan.SeqScan, nil)
	r2, _ := est.Leaf("R2", plan.SeqScan, nil)
	hj, _ := est.Join(r1, r2, plan.HashJoin)
	d, op, err := m.PlanCost(hj, optree.DefaultExpandOptions(), optree.DefaultAnnotateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if op == nil || d.RT() <= 0 {
		t.Fatal("PlanCost returned empty result")
	}
	if _, _, err := m.PlanCost(nil, optree.DefaultExpandOptions(), optree.DefaultAnnotateOptions()); err == nil {
		t.Error("PlanCost(nil) should error")
	}
}

func TestBlockingOperatorsHaveFullFirst(t *testing.T) {
	m, _ := fixture(t, 2, 2)
	scan := &optree.Op{Kind: optree.Scan, Relation: "R1", OutCard: 50_000, Width: 16}
	base := m.base(new(Scratch), scan)
	if base.First.T != 0 || !base.First.W.IsZero() {
		t.Error("scan first-tuple usage should be zero (fully pipelined)")
	}
	sort := &optree.Op{Kind: optree.Sort, Inputs: []*optree.Op{scan}, InCard: 50_000, Width: 16}
	bs := m.base(new(Scratch), sort)
	if bs.First.T != bs.Last.T {
		t.Error("sort emits first tuple at completion")
	}
}

func TestSpillDiskDeterministic(t *testing.T) {
	m, est := fixture(t, 2, 4)
	op := example1Op(t, m, est)
	var sorts []*optree.Op
	op.Walk(func(o *optree.Op) {
		if o.Kind == optree.Sort {
			sorts = append(sorts, o)
		}
	})
	if len(sorts) != 2 {
		t.Fatalf("want 2 sorts, got %d", len(sorts))
	}
	d1 := m.spillDisk(sorts[0])
	d2 := m.spillDisk(sorts[0])
	if d1 != d2 {
		t.Error("spillDisk must be deterministic")
	}
}
