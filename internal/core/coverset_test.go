package core

import (
	"reflect"
	"testing"

	"paropt/internal/query"
	"paropt/internal/search"
)

// boundGrid is every bound a request can carry: none, and both §2 policies
// from "no extra work at all" to "anything goes".
func boundGrid() []search.Bound {
	grid := []search.Bound{nil}
	for _, k := range []float64{1, 1.01, 1.05, 1.1, 1.2, 1.5, 2, 4, 100} {
		grid = append(grid, search.ThroughputDegradation{K: k})
	}
	for _, k := range []float64{0, 0.01, 0.1, 0.5, 1, 2, 10, 1000} {
		grid = append(grid, search.CostBenefit{K: k})
	}
	return grid
}

// beatenBy counts the members with no more work, no more response time and
// the final comparator's preference over c.
func beatenBy(frontier []*search.Candidate, c *search.Candidate, final search.Comparator) int {
	n := 0
	for _, b := range frontier {
		if b.Work() <= c.Work() && b.RT() <= c.RT() && final(b, c) {
			n++
		}
	}
	return n
}

// TestCoverSetKeepsWhatRequestsReach: a cached CoverSet holds a fraction of
// the root cover, and for every bound it answers exactly as the whole cover
// would — same choice (Choose == FilterFrontier over the full cover), same
// why-record, rejected list included — while reporting the whole cover's
// size.
func TestCoverSetKeepsWhatRequestsReach(t *testing.T) {
	var full, kept, skyline int
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := query.DefaultGenConfig()
			cfg.Relations, cfg.Shape, cfg.Seed = 5, shape, seed
			cat, q := query.Generate(cfg)
			o, err := NewOptimizer(cat, q, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := o.CoverSet()
			if err != nil {
				t.Fatal(err)
			}
			baseline, frontier, stats, err := search.FullCoverSet(o.opts)
			if err != nil {
				t.Fatal(err)
			}
			whole := &CoverSet{Baseline: baseline, Frontier: frontier, Size: len(frontier), Stats: stats}
			if cs.Size != len(frontier) || len(cs.Frontier) > len(frontier) {
				t.Fatalf("%s/%d: kept %d, Size %d, the root cover has %d", shape, seed, len(cs.Frontier), cs.Size, len(frontier))
			}
			full, kept = full+len(frontier), kept+len(cs.Frontier)
			for _, c := range frontier {
				if beatenBy(frontier, c, o.opts.Final) == 0 {
					skyline++
				}
			}
			for _, bound := range boundGrid() {
				got, err := o.Choose(cs, bound)
				if err != nil {
					t.Fatal(err)
				}
				want := search.FilterFrontier(frontier, bound, baseline.Work(), baseline.RT(), o.opts.Final)
				if want == nil {
					want = baseline
				}
				if got.Node.String() != want.Node.String() || got.RT() != want.RT() || got.Work() != want.Work() {
					t.Fatalf("%s/%d %v: chose %s from what was kept, %s from the whole cover", shape, seed, bound, got, want)
				}
				pk, err := o.SelectBounded(cs, bound)
				if err != nil {
					t.Fatal(err)
				}
				pw, err := o.SelectBounded(whole, bound)
				if err != nil {
					t.Fatal(err)
				}
				if why, whyWhole := o.PlanProvenance(pk, bound), o.PlanProvenance(pw, bound); !reflect.DeepEqual(why, whyWhole) {
					t.Fatalf("%s/%d %v: why-record differs\nkept  %s\nwhole %s", shape, seed, bound, why.Text(), whyWhole.Text())
				}
			}
		}
	}
	t.Logf("root cover %d members over 16 queries, %d kept, %d beaten by nobody", full, kept, skyline)
	if kept*2 > full {
		t.Errorf("kept %d of %d root cover members: the cache entry is not shrinking", kept, full)
	}
}

// TestReachableAllocatesOnlyItsSlices: filtering a real 6-relation root
// cover allocates the work column and the growing result slice, nothing
// else — no member is compared with itself, where work and response time
// tie and ByRT would render both plans to break the tie.
func TestReachableAllocatesOnlyItsSlices(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations, cfg.Shape = 6, query.Cycle
	cat, q := query.Generate(cfg)
	o, err := NewOptimizer(cat, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, frontier, _, err := search.FullCoverSet(o.opts)
	if err != nil {
		t.Fatal(err)
	}
	out := reachable(frontier, o.opts.Final)
	if len(out) == 0 || len(out) == len(frontier) {
		t.Fatalf("reachable kept %d of %d members, want a proper subset", len(out), len(frontier))
	}
	want := 1.0 // the work column
	var grown []*search.Candidate
	for range out {
		if len(grown) == cap(grown) {
			want++
		}
		grown = append(grown, nil)
	}
	if got := testing.AllocsPerRun(5, func() { reachable(frontier, o.opts.Final) }); got != want {
		t.Errorf("reachable over %d members made %.0f allocations, want %.0f (its own slices)", len(frontier), got, want)
	}
}
