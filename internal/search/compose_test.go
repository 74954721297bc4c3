package search

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// The contract of pricing by composition: every plan the dynamic program
// prices — kept, dominated or pruned by a limit — has exactly the descriptor,
// memory estimate, annotations and clone degree that pricing its whole tree
// from scratch (cost.Model.PlanCost, what the oracles use) gives it, although
// the plan it extends holds only its root operator. "Exactly" is
// math.Float64bits on every descriptor component, not a tolerance: the
// goldens and the plan a cached cover serves depend on the last bit.

// composeMachines are the three model configurations of the differential: a
// shared-everything node, a shared-nothing machine with every relation placed
// (so redistribution is charged per link and co-location is free), and the
// single node over a catalog where every relation has an index.
var composeMachines = []struct {
	name      string
	mcfg      machine.Config
	placed    bool
	indexProb float64
}{
	{"single", machine.Config{CPUs: 4, Disks: 4, Networks: 1}, false, 0.5},
	{"multi-placed", machine.Config{CPUs: 2, Disks: 1, Nodes: 3, NetLatency: 1}, true, 0.5},
	{"indexed", machine.Config{CPUs: 4, Disks: 4, Networks: 1}, false, 1},
}

// sameBits reports a == b component by component, bit for bit.
func sameBits(a, b cost.ResDescriptor) bool {
	same := func(x, y cost.ResVector) bool {
		if math.Float64bits(float64(x.T)) != math.Float64bits(float64(y.T)) || len(x.W) != len(y.W) {
			return false
		}
		for i := range x.W {
			if math.Float64bits(x.W[i]) != math.Float64bits(y.W[i]) {
				return false
			}
		}
		return true
	}
	return same(a.First, b.First) && same(a.Last, b.Last)
}

// totalDegree is what Annotate's rotating offset ends at.
func totalDegree(op *optree.Op) int {
	n := 0
	op.Walk(func(o *optree.Op) { n += o.Clone.Degree() })
	return n
}

// sameAnnotations compares every annotation of two operator trees of one
// plan, what AnnotationTable renders plus the repartitioning attribute, down
// to and including a's operator done (its clone set and its edge to the
// parent), whose inputs a composed tree does not hold; a nil done compares
// the whole trees.
func sameAnnotations(a, b, done *optree.Op) bool {
	if a.Kind != b.Kind || a.Composition != b.Composition || a.Redistribute != b.Redistribute ||
		a.RedistAttr != b.RedistAttr || a.Clone.Attribute != b.Clone.Attribute ||
		!slices.Equal(a.Clone.Resources, b.Clone.Resources) || !slices.Equal(a.RedistTargets, b.RedistTargets) {
		return false
	}
	if a == done {
		return true
	}
	if len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i := range a.Inputs {
		if !sameAnnotations(a.Inputs[i], b.Inputs[i], done) {
			return false
		}
	}
	return true
}

// composeSeeds thins the cross product where a single search prices tens of
// thousands of plans (n = 5: ≈ 10k left-deep, ≈ 27k bushy; n = 6: ≈ 48k
// left-deep, ≈ 250k bushy — every one re-priced from scratch here, ≈ 40 µs
// each): eight seeds at n = 3 and at n = 4 left-deep, two at n = 4 bushy,
// then one seed in three (machine, shape) cells at n = 5 left-deep, on the
// placed shared-nothing cycle at n = 5 bushy and on BenchmarkPODP's
// single-node chain at n = 6 left-deep. No n = 6 bushy: it composes nothing
// n = 5 bushy does not (right operands of one to four relations at every
// offset). -short stops at n = 4 with two seeds.
func composeSeeds(n int, bushy bool, mi, si int) int {
	switch {
	case n == 3, n == 4 && !bushy:
		if testing.Short() {
			return 2
		}
		return 8
	case n == 4:
		return 2
	case testing.Short():
		return 0
	case n == 5 && !bushy && (mi+si)%4 == 1,
		n == 5 && bushy && mi == 1 && si == 2,
		n == 6 && !bushy && mi == 0 && si == 0:
		return 1
	}
	return 0
}

func TestComposedPricingMatchesWholeTree(t *testing.T) {
	// The tap below collects into shared counters and fails the test from
	// inside a search, which may price on helper goroutines; at GOMAXPROCS 1
	// a search has none.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var priced, joins int64
	for mi, mc := range composeMachines {
		for si, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
			for n := 3; n <= 6; n++ {
				for _, bushy := range []bool{false, true} {
					for seed := 1; seed <= composeSeeds(n, bushy, mi, si); seed++ {
						cfg := query.DefaultGenConfig()
						cfg.Relations, cfg.Shape, cfg.Seed, cfg.IndexProb = n, shape, int64(seed), mc.indexProb
						cat, q := query.Generate(cfg)
						est := plan.NewEstimator(cat, q)
						mod := cost.NewModel(cat, machine.New(mc.mcfg), est, cost.DefaultParams())
						if mc.placed {
							mod.Placed = map[string]cost.PlacedRelation{}
							for i, rel := range q.Relations {
								col := "fk"
								if i%2 == 0 {
									col = "id"
								}
								mod.Placed[rel] = cost.PlacedRelation{Column: col, Nodes: []int{i % 3, (i + 1) % 3}}
							}
						}
						// Odd seeds clone the way the daemon does, even seeds not at
						// all (the configuration the exhaustive oracles run under).
						opt := Options{Model: mod, Expand: optree.DefaultExpandOptions(), Annotate: optree.DefaultAnnotateOptions()}
						opt.Annotate.MaxDegree = 1 - seed%2
						name := fmt.Sprintf("%s/%s-%d/seed%d/bushy=%v", mc.name, shape, n, seed, bushy)
						// First without a memory limit, collecting the peaks; then (two
						// seeds) with the median peak as the limit, so about half of
						// what is priced is pruned on memory.
						var peaks []int64
						runs := []bool{false, true}
						if seed > 2 {
							runs = runs[:1]
						}
						for _, limited := range runs {
							if limited {
								slices.Sort(peaks)
								opt.MemoryLimit = peaks[len(peaks)/2]
							}
							s := New(opt)
							s.priced = func(c *Candidate, done *optree.Op) error {
								op := c.op
								priced++
								if !c.Node.IsLeaf() {
									joins++
								}
								wd, wop, err := mod.PlanCost(c.Node, opt.Expand, opt.Annotate)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if !sameBits(c.Desc, wd) {
									t.Fatalf("%s: %s\ncomposed %v\nwhole    %v", name, c.Node, c.Desc, wd)
								}
								peak := c.mem
								if want := mod.MemoryEstimate(wop); peak != want {
									t.Fatalf("%s: %s: memory %+v, whole tree %+v", name, c.Node, peak, want)
								}
								if !sameAnnotations(op, wop, done) {
									t.Fatalf("%s: %s: annotations\n%s\nwhole tree\n%s", name, c.Node, op.AnnotationTable(), wop.AnnotationTable())
								}
								if c.deg != totalDegree(wop) {
									t.Fatalf("%s: %s: candidate carries clone degree %d, whole tree %d", name, c.Node, c.deg, totalDegree(wop))
								}
								if !limited {
									peaks = append(peaks, peak.PeakPages)
								}
								return nil
							}
							run := s.PODPLeftDeep
							if bushy {
								run = s.PODPBushy
							}
							res, err := run()
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							for _, c := range res.Frontier {
								if c.op != nil {
									t.Fatalf("%s: frontier member %s still holds its operator tree", name, c.Node)
								}
							}
							if limited && res.Stats.PrunedMemory == 0 {
								t.Fatalf("%s: memory limit %d pruned nothing", name, opt.MemoryLimit)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d plans priced by the dp (%d joins), 0 mismatches", priced, joins)
	if joins == 0 {
		t.Fatal("no join was priced")
	}
}
