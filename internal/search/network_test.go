package search

import (
	"testing"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// searcherOn builds a searcher over a generated workload on a specific
// machine config, so tests can compare topologies.
func searcherOn(t testing.TB, cfg query.GenConfig, mcfg machine.Config) *Searcher {
	t.Helper()
	cat, q := query.Generate(cfg)
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	est := plan.NewEstimator(cat, q)
	m := machine.New(mcfg)
	return New(Options{
		Model:    cost.NewModel(cat, m, est, cost.DefaultParams()),
		Expand:   optree.DefaultExpandOptions(),
		Annotate: optree.DefaultAnnotateOptions(),
	})
}

// TestNetworkDimensionWidensMetric: moving the same total hardware from one
// shared-everything node to four shared-nothing nodes adds one interconnect
// coordinate per node to the pruning metric.
func TestNetworkDimensionWidensMetric(t *testing.T) {
	cfg := cliqueCfg(4)
	single := machine.Config{CPUs: 4, Disks: 4, Networks: 1}
	multi := machine.Config{CPUs: 1, Disks: 1, Nodes: 4, NetLatency: 1}

	r1, err := searcherOn(t, cfg, single).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := searcherOn(t, cfg, multi).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	d1, d4 := r1.Stats.MetricDims, r4.Stats.MetricDims
	if d1 == 0 || d4 == 0 {
		t.Fatalf("MetricDims not recorded: single=%d multi=%d", d1, d4)
	}
	// single: 4 cpu + 4 disk + 1 net = 9 resources → 2·(9+1) dims;
	// multi: 4·(1 cpu + 1 disk + 1 link) = 12 resources → 2·(12+1) dims.
	if d4 <= d1 {
		t.Errorf("multi-node metric dims = %d, want > single-node %d", d4, d1)
	}
}

// TestNetworkDimensionGrowsCoverSets: with redistribution charged to
// per-node interconnect links, local and repartitioned variants of the same
// subplan stop dominating each other, so the partial-order DP must keep at
// least as many plans per subset as on the equivalent single node.
func TestNetworkDimensionGrowsCoverSets(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Chain
	cfg.IndexProb = 0
	cfg.SortedProb = 0

	s1 := searcherOn(t, cfg, machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	r1, err := s1.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	s4 := searcherOn(t, cfg, machine.Config{CPUs: 1, Disks: 1, Nodes: 4, NetLatency: 1})
	r4, err := s4.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best == nil || r4.Best == nil {
		t.Fatal("both searches must find a plan")
	}
	if r4.Stats.MaxCoverSize < r1.Stats.MaxCoverSize {
		t.Errorf("multi-node max cover = %d, want ≥ single-node %d",
			r4.Stats.MaxCoverSize, r1.Stats.MaxCoverSize)
	}
	t.Logf("cover sizes: single=%d multi=%d; frontier: single=%d multi=%d",
		r1.Stats.MaxCoverSize, r4.Stats.MaxCoverSize, len(r1.Frontier), len(r4.Frontier))
}
