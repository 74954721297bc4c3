package search

import (
	"strings"
	"testing"

	"paropt/internal/query"
)

// TestCountingTracerOnDPWrappers: every face of the dp driver leaves one
// layer record per cardinality, each storing plans for no more subsets than
// the lattice has, and the last one holding the full-set cover the result's
// best plan comes from.
func TestCountingTracerOnDPWrappers(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Chain
	binom := []int{0, 4, 6, 4, 1}
	for _, w := range dpWrappers {
		res, err := w.run(newSearcher(t, cfg, nil))
		if err != nil {
			t.Fatal(err)
		}
		layers := res.Stats.Layers
		if len(layers) != 4 {
			t.Fatalf("%s: %d layer records, want 4", w.name, len(layers))
		}
		for i, rec := range layers {
			if rec.Card != i+1 {
				t.Errorf("%s: record %d has cardinality %d", w.name, i, rec.Card)
			}
			if rec.Kept <= 0 {
				t.Errorf("%s: layer %d stored %d plans", w.name, rec.Card, rec.Kept)
			}
			if rec.Subsets < 1 || rec.Subsets > binom[rec.Card] {
				t.Errorf("%s: layer %d solved %d subsets, want 1..%d", w.name, rec.Card, rec.Subsets, binom[rec.Card])
			}
		}
		if int(layers[3].Kept) != len(res.Frontier) {
			t.Errorf("%s: final layer %d != frontier %d", w.name, layers[3].Kept, len(res.Frontier))
		}
		found := false
		for _, c := range res.Frontier {
			found = found || c == res.Best
		}
		if res.Best == nil || !found {
			t.Errorf("%s: best %v is not a member of the root cover", w.name, res.Best)
		}
	}
}

// TestCountingTracerOnDP: DP stores exactly C(4,i) plans per layer on a
// clique, and the records say so.
func TestCountingTracerOnDP(t *testing.T) {
	res, err := newSearcher(t, cliqueCfg(4), nil).DPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 6, 4, 1}
	if len(res.Stats.Layers) != len(want) {
		t.Fatalf("layers = %+v", res.Stats.Layers)
	}
	for i, rec := range res.Stats.Layers {
		if rec.Kept != want[i] || rec.MaxCover != 1 {
			t.Errorf("layer %d stored %d plans (max cover %d), want %d (1)", i+1, rec.Kept, rec.MaxCover, want[i])
		}
	}
}

// TestWriterTracer: the record's text is a header, one row per layer
// record, then the winner and the totals — nothing per subset.
func TestWriterTracer(t *testing.T) {
	res, err := newSearcher(t, cliqueCfg(3), nil).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Stats.Table(res.Best)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1+3+2 {
		t.Fatalf("table has %d lines, want header + 3 layers + best + totals:\n%s", len(lines), out)
	}
	if f := strings.Fields(lines[0]); f[0] != "layer" || f[1] != "subsets" || f[4] != "kept" {
		t.Errorf("header = %q", lines[0])
	}
	for i, want := range [][2]string{{"1", "3"}, {"2", "3"}, {"3", "1"}} {
		if f := strings.Fields(lines[1+i]); f[0] != want[0] || f[1] != want[1] {
			t.Errorf("line %d = %q, want layer %s with %s subsets", 1+i, lines[1+i], want[0], want[1])
		}
	}
	for i, prefix := range []string{"best: " + res.Best.String(), "total: 3 relations, "} {
		if !strings.HasPrefix(lines[4+i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", 4+i, lines[4+i], prefix)
		}
	}
}

// TestWriterTracerNoPlan: a search whose work limit prunes everything still
// leaves its layer records, and the text carries the no-plan marker before
// the totals.
func TestWriterTracerNoPlan(t *testing.T) {
	s := newSearcher(t, cliqueCfg(3), func(o *Options) { o.WorkLimit = 0.000001 })
	res, err := s.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatal("expected total pruning")
	}
	out := res.Stats.Table(res.Best)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("table of a fully pruned search:\n%s", out)
	}
	if f := strings.Fields(lines[1]); f[0] != "1" || f[1] != "0" || f[4] != "0" {
		t.Errorf("layer 1 should keep 0 subsets and 0 plans: %q", lines[1])
	}
	if n := len(lines); lines[n-2] != "no plan (all pruned)" || !strings.HasPrefix(lines[n-1], "total: ") {
		t.Errorf("table of a fully pruned search should end in the no-plan marker and the totals:\n%s", out)
	}
	if res.Stats.PrunedWork == 0 || res.Stats.PrunedWork != res.Stats.Pruned {
		t.Errorf("every prune should be a work-limit prune: %+v", res.Stats)
	}
}

// TestOrderClassesStatistic: the bindings statistic (the measured 2^b
// factor) is collected and bounded by the cover size.
func TestOrderClassesStatistic(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Chain
	cfg.SortedProb = 1 // every relation sorted: plenty of orderings
	s := newSearcher(t, cfg, nil)
	res, err := s.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxOrderClasses < 1 {
		t.Error("order classes not collected")
	}
	if res.Stats.MaxOrderClasses > res.Stats.MaxCoverSize {
		t.Errorf("order classes %d exceed max cover %d",
			res.Stats.MaxOrderClasses, res.Stats.MaxCoverSize)
	}
}
