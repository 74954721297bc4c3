package search

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// dpWrappers are the four exported faces of the one dp driver.
var dpWrappers = []struct {
	name string
	run  func(*Searcher) (*Result, error)
}{
	{"DPLeftDeep", (*Searcher).DPLeftDeep},
	{"DPBushy", (*Searcher).DPBushy},
	{"PODPLeftDeep", (*Searcher).PODPLeftDeep},
	{"PODPBushy", (*Searcher).PODPBushy},
}

// TestDPReturnsCostingErrors: a failing PlanCost/est.Join must surface as
// the search's error, not as silently dropped subsets and a nil Best. A
// search on helpers returns the serial search's error — that of the first
// failing subset in enumeration order, when two subsets of a middle layer
// fail — or the root's, priced on a helper, and leaves no goroutine behind.
func TestDPReturnsCostingErrors(t *testing.T) {
	for _, w := range dpWrappers {
		s := newSearcher(t, cliqueCfg(3), func(o *Options) {
			o.Methods = []plan.JoinMethod{plan.JoinMethod(99)}
		})
		if res, err := w.run(s); err == nil {
			t.Errorf("%s: unknown join method returned err == nil (Best %v)", w.name, res.Best)
		}
	}
	var layer3 []query.RelSet
	query.SubsetsOfSize(6, 3, func(set query.RelSet) { layer3 = append(layer3, set) })
	for _, fail := range [][]query.RelSet{{layer3[12], layer3[3]}, {query.FullSet(6)}} {
		at := map[query.RelSet]int{}
		for _, set := range fail {
			at[set] = len(at)
		}
		var errs [2]string
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			start := runtime.NumGoroutine()
			for _, w := range dpWrappers {
				s := newSearcher(t, cliqueCfg(6), nil)
				s.priced = func(c *Candidate, _ *optree.Op) error {
					if k, ok := at[c.Node.Rels]; ok {
						return fmt.Errorf("injected into %v (%d)", c.Node.Rels, k)
					}
					return nil
				}
				_, err := w.run(s)
				errs[i] += fmt.Sprintf("%s: %v\n", w.name, err)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Errorf("GOMAXPROCS %d: %d goroutines after the failed searches, %d before", procs, n, start)
			}
			runtime.GOMAXPROCS(prev)
		}
		if errs[0] != errs[1] || !strings.Contains(errs[0], fmt.Sprintf("injected into %v", fail[len(fail)-1])) {
			t.Errorf("injected into %v: on helpers\n%sserially\n%s", fail, errs[1], errs[0])
		}
	}
}

// TestBruteForceReturnsCostingErrors: the oracles the DP is cross-checked
// against must fail the same way — BruteForceBushy used to return from its
// split closure on a costing error, coming back with a smaller plan space (or
// none) and err == nil.
func TestBruteForceReturnsCostingErrors(t *testing.T) {
	for name, run := range map[string]func(*Searcher) (*Result, error){
		"BruteForceLeftDeep": (*Searcher).BruteForceLeftDeep,
		"BruteForceBushy":    (*Searcher).BruteForceBushy,
	} {
		s := newSearcher(t, cliqueCfg(3), func(o *Options) {
			o.Methods = []plan.JoinMethod{plan.JoinMethod(99)}
		})
		if res, err := run(s); err == nil {
			t.Errorf("%s: unknown join method returned err == nil (Best %v)", name, res.Best)
		}
	}
}

// TestPODPFrontierGolden pins the root cover sets of the partial-order
// searches — members, order and exact costs — to the values the four
// hand-written loops produced before they became one driver. It is the
// serial oracle for any future sharding of dp: a parallel search must
// return a bit-identical cover set.
func TestPODPFrontierGolden(t *testing.T) {
	golden := []struct {
		bushy bool
		shape query.Shape
		n     int
		want  uint64
	}{
		{false, query.Chain, 3, 0x4febecec146fad12},
		{false, query.Chain, 4, 0x1d554075b0973baa},
		{false, query.Chain, 5, 0x6e4ee3d6b1c7b82d},
		{false, query.Chain, 6, 0x69ba3f3534d70c62},
		{false, query.Star, 3, 0x92a5583e25ead5c3},
		{false, query.Star, 4, 0xf1ae0d33f4ed078},
		{false, query.Star, 5, 0x769c5adffe154eee},
		{false, query.Star, 6, 0x654b9bb71533afc7},
		{false, query.Cycle, 3, 0xb14d0aeb9cff6e1e},
		{false, query.Cycle, 4, 0xf190520e38402c58},
		{false, query.Cycle, 5, 0x9120767d56985d9c},
		{false, query.Cycle, 6, 0x5c4207199a8b47a1},
		{false, query.Clique, 3, 0x3b9e3f89b36e4844},
		{false, query.Clique, 4, 0x52d59ae5dac8af08},
		{false, query.Clique, 5, 0x15a99c4b647ee582},
		{false, query.Clique, 6, 0x26463cfd708a8e4b},
		{true, query.Chain, 3, 0x94e9203629db4722},
		{true, query.Chain, 4, 0xec26327a02636bca},
		{true, query.Chain, 5, 0x7ccd24aca226329e},
		{true, query.Star, 3, 0xdbdf07d8d076a77d},
		{true, query.Star, 4, 0x3afacc4e9a6076dd},
		{true, query.Star, 5, 0x3a36435e80e5248a},
		{true, query.Cycle, 3, 0x56aa6567f66856ec},
		{true, query.Cycle, 4, 0x552e77d384a69db8},
		{true, query.Cycle, 5, 0x889b51f3497342f},
		{true, query.Clique, 3, 0x2b84aaf618e5a212},
		{true, query.Clique, 4, 0xdf9be92c520f5ca8},
		{true, query.Clique, 5, 0xa8a81da01abdc3e6},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("bushy=%v/%v/n=%d", g.bushy, g.shape, g.n), func(t *testing.T) {
			if g.n == 6 && testing.Short() {
				t.Skip("the n = 6 rows are ~12 s of search")
			}
			t.Parallel()
			run := (*Searcher).PODPLeftDeep
			if g.bushy {
				run = (*Searcher).PODPBushy
			}
			// One FNV-64a over the frontiers of seeds 1..5, in order.
			h := fnv.New64a()
			for seed := int64(1); seed <= 5; seed++ {
				cfg := query.DefaultGenConfig()
				cfg.Relations, cfg.Shape, cfg.Seed = g.n, g.shape, seed
				res, err := run(newSearcher(t, cfg, nil))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Frontier {
					fmt.Fprintf(h, "%s|%x|%x\n", c, math.Float64bits(c.RT()), math.Float64bits(c.Work()))
				}
			}
			if got := h.Sum64(); got != g.want {
				t.Errorf("frontier hash %#x, want %#x", got, g.want)
			}
		})
	}
}

// TestBaselineTiesGoToFinal: when several left-deep plans tie on work the §2
// baseline is the one ByWork prefers (lowest RT), whatever order the
// relations were enumerated in. The four copied loops sent cross-extension
// ties to the later extension; on these cliques that cost up to 20% of To.
func TestBaselineTiesGoToFinal(t *testing.T) {
	for _, tc := range []struct {
		n      int
		seed   int64
		wo, to float64
	}{
		{6, 9, 20993.917520000003, 8659.875},
		{5, 15, 43929.978520000004, 17745.789},
	} {
		cfg := query.DefaultGenConfig()
		cfg.Relations, cfg.Shape, cfg.Seed = tc.n, query.Clique, tc.seed
		b, err := newSearcher(t, cfg, func(o *Options) { o.AvoidCrossProducts = true }).WorkOptimalBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if b.Work() != tc.wo || math.Abs(b.RT()-tc.to) > 1e-3 {
			t.Errorf("clique n=%d seed=%d: baseline (Wo, To) = (%v, %v), want (%v, %v): %s",
				tc.n, tc.seed, b.Work(), b.RT(), tc.wo, tc.to, b.Node)
		}
	}
}
