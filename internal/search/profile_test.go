package search

import (
	"runtime"
	"strings"
	"testing"

	"paropt/internal/plan"
	"paropt/internal/query"
)

// TestLayerRecordsAggregateToStats cross-checks the per-layer telemetry
// against the search totals for every strategy that records layers: the
// deltas captured at layer boundaries must partition the cumulative
// counters, and the prune reasons must partition the prune total.
func TestLayerRecordsAggregateToStats(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 5
	cfg.Shape = query.Chain

	strategies := []struct {
		name       string
		run        func(s *Searcher) (*Result, error)
		wantLayers int
	}{
		{"brute", (*Searcher).BruteForceLeftDeep, 1},
		{"podp", (*Searcher).PODPLeftDeep, 5},
		{"podp-bushy", (*Searcher).PODPBushy, 5},
		{"dp", (*Searcher).DPLeftDeep, 5},
		{"randomized", func(s *Searcher) (*Result, error) {
			opts := DefaultRandomizedOptions()
			opts.Seed = 42
			return s.Randomized(opts)
		}, 1},
	}
	for _, tc := range strategies {
		t.Run(tc.name, func(t *testing.T) {
			s := newSearcher(t, cfg, nil)
			res, err := tc.run(s)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if len(st.Layers) != tc.wantLayers {
				t.Fatalf("recorded %d layers, want %d", len(st.Layers), tc.wantLayers)
			}
			var considered, physical, pruned, kept int64
			for _, l := range st.Layers {
				considered += l.Considered
				physical += l.Physical
				pruned += l.Pruned()
				kept += l.Kept
				if l.Pruned() != l.PrunedDominance+l.PrunedWork+l.PrunedMemory+l.PrunedBeam {
					t.Errorf("layer %d prune reasons don't partition: %+v", l.Card, l)
				}
				if l.WallNanos < 0 || l.BytesRetained < 0 {
					t.Errorf("layer %d has negative aggregates: %+v", l.Card, l)
				}
			}
			if considered != st.PlansConsidered {
				t.Errorf("layer considered sum %d != stats %d", considered, st.PlansConsidered)
			}
			if physical != st.PhysicalPlans {
				t.Errorf("layer physical sum %d != stats %d", physical, st.PhysicalPlans)
			}
			if pruned != st.Pruned {
				t.Errorf("layer pruned sum %d != stats %d", pruned, st.Pruned)
			}
			if st.Pruned != st.PrunedDominance+st.PrunedWork+st.PrunedMemory+st.PrunedBeam {
				t.Errorf("stats prune reasons don't partition the total: %+v", st)
			}
			if res.Best != nil && kept == 0 {
				t.Error("a successful search should retain candidates in its layers")
			}

			// The aggregated profile mirrors the records and renders.
			p := st.Profile()
			if len(p.Layers) != tc.wantLayers {
				t.Errorf("profile layers = %d, want %d", len(p.Layers), tc.wantLayers)
			}
			table := p.Table()
			if !strings.Contains(table, "layer") || !strings.Contains(table, "total") {
				t.Errorf("profile table incomplete:\n%s", table)
			}
		})
	}
}

// TestTwoPhaseRecordsPseudoLayer: the two-phase strategy records exactly one
// pseudo-layer spanning both phases.
func TestTwoPhaseRecordsPseudoLayer(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Star
	s := newSearcher(t, cfg, nil)
	res, err := s.TwoPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Layers) != 1 {
		t.Fatalf("two-phase should record 1 pseudo-layer, got %d", len(res.Stats.Layers))
	}
	l := res.Stats.Layers[0]
	if l.Card != 4 || l.Subsets != 1 {
		t.Errorf("pseudo-layer shape wrong: %+v", l)
	}
	if res.Best != nil && l.Kept != 1 {
		t.Errorf("pseudo-layer should keep the winner: %+v", l)
	}
	if l.Considered != res.Stats.PlansConsidered {
		t.Errorf("pseudo-layer considered %d != stats %d", l.Considered, res.Stats.PlansConsidered)
	}
}

// TestCandidateBytesIsWhatPromoteAllocates pins the search.peak_retained_kb
// estimate to the code: N promotions of a leaf, of a join and of a root join
// allocate candidateBytes each, up to the allocator's size-class rounding
// (at most an eighth of an object, or 16 bytes for a small one).
func TestCandidateBytesIsWhatPromoteAllocates(t *testing.T) {
	s := New(benchOptions(t))
	leaves := s.mustLeaves(t, 0)
	left, err := s.extend(&nothing, leaves[0])
	if err != nil || left == nil {
		t.Fatal(err)
	}
	left = s.promote(left)
	nodes, err := s.joinNodes(left.Node, s.mustLeaves(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	kept := make([]*Candidate, n)
	for _, tc := range []struct {
		name  string
		left  *Candidate
		node  *plan.Node
		card  int
		root  bool
		alloc int // objects promote allocates
	}{
		{"leaf", &nothing, leaves[0], 1, false, 3},
		{"join", left, nodes[len(nodes)-1], 2, false, 4},
		{"root", left, nodes[len(nodes)-1], 2, true, 3},
	} {
		s.root = tc.root
		c, err := s.extend(tc.left, tc.node)
		if err != nil || c == nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range kept {
			kept[i] = s.promote(c)
		}
		runtime.ReadMemStats(&after)
		got, want := int64(after.TotalAlloc-before.TotalAlloc)/n, s.candidateBytes(tc.card)
		t.Logf("%s: promote allocates %d bytes, candidateBytes %d", tc.name, got, want)
		if got < want || got > want+want/8+int64(16*tc.alloc) {
			t.Errorf("%s: promote allocates %d bytes per candidate, candidateBytes says %d", tc.name, got, want)
		}
	}
}
