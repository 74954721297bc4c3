package search

import (
	"strings"
	"testing"

	"paropt/internal/query"
)

// finalCounter is a CountingTracer that also counts Final events.
type finalCounter struct {
	CountingTracer
	finals int
}

func (t *finalCounter) Final(best *Candidate, st Stats) {
	t.finals++
	t.CountingTracer.Final(best, st)
}

// TestCountingTracerOnDPWrappers: every face of the dp driver reports one
// layer record per cardinality, one subset event per solved subset of
// cardinality ≥ 2, and exactly one final plan.
func TestCountingTracerOnDPWrappers(t *testing.T) {
	cfg := query.DefaultGenConfig()
	cfg.Relations = 4
	cfg.Shape = query.Chain
	for _, w := range dpWrappers {
		tracer := &finalCounter{}
		res, err := w.run(newSearcher(t, cfg, func(o *Options) { o.Trace = tracer }))
		if err != nil {
			t.Fatal(err)
		}
		if len(tracer.Layers) != 4 {
			t.Fatalf("%s: layers traced = %d, want 4", w.name, len(tracer.Layers))
		}
		subsets := 0
		for i, rec := range tracer.Records {
			if rec.Kept <= 0 {
				t.Errorf("%s: layer %d stored %d plans", w.name, i+1, rec.Kept)
			}
			if rec.Card >= 2 {
				subsets += rec.Subsets
			}
		}
		if subsets == 0 || tracer.Subsets != subsets {
			t.Errorf("%s: %d subset events, want Σ layer.Subsets = %d", w.name, tracer.Subsets, subsets)
		}
		if tracer.finals != 1 || tracer.Best == nil || tracer.Best != res.Best {
			t.Errorf("%s: %d final events carrying %v, want one carrying the result's best", w.name, tracer.finals, tracer.Best)
		}
		// The last layer holds the full-set cover.
		if int(tracer.Layers[3]) != len(res.Frontier) {
			t.Errorf("%s: final layer %d != frontier %d", w.name, tracer.Layers[3], len(res.Frontier))
		}
	}
}

func TestCountingTracerOnDP(t *testing.T) {
	tracer := &CountingTracer{}
	s := newSearcher(t, cliqueCfg(4), func(o *Options) { o.Trace = tracer })
	res, err := s.DPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	// DP stores exactly C(4,i) plans per layer on a clique.
	want := []int64{4, 6, 4, 1}
	if len(tracer.Layers) != len(want) {
		t.Fatalf("layers = %v", tracer.Layers)
	}
	for i := range want {
		if tracer.Layers[i] != want[i] {
			t.Errorf("layer %d stored %d, want %d", i+1, tracer.Layers[i], want[i])
		}
	}
	if tracer.Best != res.Best {
		t.Error("final mismatch")
	}
}

func TestWriterTracer(t *testing.T) {
	var sb strings.Builder
	tracer := &WriterTracer{W: &sb, Verbose: true}
	s := newSearcher(t, cliqueCfg(3), func(o *Options) { o.Trace = tracer })
	if _, err := s.PODPLeftDeep(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"layer 1:", "layer 3:", "best:", "considered="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Verbose mode prints subset lines.
	if !strings.Contains(out, "{0,1}") && !strings.Contains(out, "kept") {
		t.Errorf("verbose trace missing subset lines:\n%s", out)
	}
}

func TestWriterTracerNoPlan(t *testing.T) {
	var sb strings.Builder
	tracer := &WriterTracer{W: &sb}
	// An impossible work limit prunes everything.
	s := newSearcher(t, cliqueCfg(3), func(o *Options) {
		o.Trace = tracer
		o.WorkLimit = 0.000001
	})
	res, err := s.PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatal("expected total pruning")
	}
	if !strings.Contains(sb.String(), "no plan") {
		t.Errorf("trace missing no-plan marker:\n%s", sb.String())
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
