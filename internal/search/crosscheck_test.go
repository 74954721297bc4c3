package search

import (
	"testing"

	"paropt/internal/query"
)

// Cross-algorithm consistency checks: different algorithms over the same
// space and metric must agree on the optimum.

// TestDPAndPODPAgreeOnWork: with the total-order work metric, Figure 1 and
// Figure 2 collapse to the same search; they must choose the same plan.
func TestDPAndPODPAgreeOnWork(t *testing.T) {
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Clique} {
		cfg := query.DefaultGenConfig()
		cfg.Relations = 5
		cfg.Shape = shape
		mkOpts := func(o *Options) {
			o.Metric = WorkMetric{}
			o.Final = ByWork
		}
		dp, err := newSearcher(t, cfg, mkOpts).DPLeftDeep()
		if err != nil {
			t.Fatal(err)
		}
		podp, err := newSearcher(t, cfg, mkOpts).PODPLeftDeep()
		if err != nil {
			t.Fatal(err)
		}
		if dp.Best.String() != podp.Best.String() {
			t.Errorf("%v: DP chose %s, PODP chose %s", shape, dp.Best, podp.Best)
		}
		// A total order keeps covers at size 1.
		if podp.Stats.MaxCoverSize != 1 {
			t.Errorf("%v: total-order cover grew to %d", shape, podp.Stats.MaxCoverSize)
		}
	}
}

// TestBushyWorkNoWorseThanLeftDeep: the bushy space contains every
// left-deep plan, so the bushy work optimum cannot exceed the left-deep one.
func TestBushyWorkNoWorseThanLeftDeep(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Chain
	mkOpts := func(o *Options) {
		o.Metric = WorkMetric{}
		o.Final = ByWork
	}
	ld, err := newSearcher(t, cfg, mkOpts).DPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	bushy, err := newSearcher(t, cfg, mkOpts).DPBushy()
	if err != nil {
		t.Fatal(err)
	}
	if bushy.Best.Work() > ld.Best.Work()+1e-9 {
		t.Errorf("bushy work %g worse than left-deep %g", bushy.Best.Work(), ld.Best.Work())
	}
}

// TestCoverCapBoundsSearch: a beam cap keeps covers at the cap, finds a
// plan, and cannot beat the exact search.
func TestCoverCapBoundsSearch(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Star
	exact, err := newSearcher(t, cfg, nil).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	beam, err := newSearcher(t, cfg, func(o *Options) { o.CoverCap = 8 }).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if beam.Best == nil {
		t.Fatal("beam search found no plan")
	}
	if beam.Stats.MaxCoverSize > 9 { // cap + the transient overflow slot
		t.Errorf("beam cover grew to %d despite cap 8", beam.Stats.MaxCoverSize)
	}
	if beam.Best.RT() < exact.Best.RT()-1e-9 {
		t.Errorf("beam rt %g beats exact rt %g — impossible", beam.Best.RT(), exact.Best.RT())
	}
	if beam.Stats.PlansConsidered >= exact.Stats.PlansConsidered {
		t.Errorf("beam considered %d plans, exact %d — cap should shrink the search",
			beam.Stats.PlansConsidered, exact.Stats.PlansConsidered)
	}
}

// TestBeamCoverSetEviction: unit-level behavior of the capped cover.
func TestBeamCoverSetEviction(t *testing.T) {
	cs := NewBeamCoverSet(ResourceVectorMetric{L: 2}, 2, ByRT)
	a := vecCand("a", 1, 9) // rt 9
	b := vecCand("b", 5, 5) // rt 5
	c := vecCand("c", 9, 1) // rt 9
	if !cs.Insert(a) || !cs.Insert(b) {
		t.Fatal("first two incomparable plans must be kept")
	}
	// Inserting c overflows the cap; the worst by RT is evicted. a and c
	// tie at rt 9, work 10 — the tie-break (plan string) keeps "a" ahead
	// of "c", so c is evicted and Insert reports false.
	if cs.Insert(c) {
		t.Error("the overflow victim was the newcomer; Insert should report false")
	}
	if cs.Len() != 2 {
		t.Fatalf("cover size %d, want 2", cs.Len())
	}
	if cs.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", cs.Evicted)
	}
}
