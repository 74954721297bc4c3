package search

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"paropt/internal/cost"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// searchPrint renders what a search on helpers must reproduce bit for bit:
// the frontier in order — plan strings and the bits of both descriptors — the
// best plan, and every Stats counter but the layers' times and worker counts.
func searchPrint(res *Result) string {
	var b strings.Builder
	for _, c := range res.Frontier {
		b.WriteString(c.Node.String())
		for _, v := range []cost.ResVector{c.Desc.First, c.Desc.Last} {
			fmt.Fprintf(&b, " %x", math.Float64bits(float64(v.T)))
			for _, w := range v.W {
				fmt.Fprintf(&b, " %x", math.Float64bits(w))
			}
		}
		b.WriteByte('\n')
	}
	if res.Best != nil {
		fmt.Fprintf(&b, "best %s\n", res.Best)
	}
	st := res.Stats
	st.Layers = slices.Clone(st.Layers)
	for i := range st.Layers {
		st.Layers[i].Start, st.Layers[i].WallNanos, st.Layers[i].Workers = time.Time{}, 0, 0
	}
	fmt.Fprintf(&b, "%+v\n", st)
	return b.String()
}

// parallelCase is one search of the TestParallelDPIsSerialDP matrix.
type parallelCase struct {
	shape       query.Shape
	n           int
	seed        int64
	bushy       bool
	coverCap    int
	limited     bool
	opt         Options
	prints      [2]string
	rootWorkers [2]int
}

// parallelCases builds the matrix: chain/star/cycle/clique × n = 3..7 ×
// seeds 1–8 × left-deep and bushy × CoverCap 0 and 8 × with and without a
// WorkLimit (1.5 × the work-optimal baseline's work), cross products avoided
// on odd seeds, on a 2-CPU, 2-disk machine. The largest searches take up to
// seconds, so the n = 7 rows and the bushy n = 6 rows keep one seed per
// shape, and bushy rows above five relations keep CoverCap 8 and, at n = 7,
// the limit alone. -short keeps n ≤ 5 and seeds 1–2.
func parallelCases(t *testing.T) []*parallelCase {
	var cases []*parallelCase
	for si, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
		for n := 3; n <= 7; n++ {
			for seed := int64(1); seed <= 8; seed++ {
				if testing.Short() && (n > 5 || seed > 2) {
					continue
				}
				cfg := query.DefaultGenConfig()
				cfg.Relations, cfg.Shape, cfg.Seed, cfg.IndexProb = n, shape, seed, 0
				cat, q := query.Generate(cfg)
				if err := q.Validate(cat); err != nil {
					t.Fatal(err)
				}
				est := plan.NewEstimator(cat, q)
				base := Options{
					Model:              cost.NewModel(cat, machine.New(machine.Config{CPUs: 2, Disks: 2, Networks: 1}), est, cost.DefaultParams()),
					Expand:             optree.DefaultExpandOptions(),
					Annotate:           optree.DefaultAnnotateOptions(),
					AvoidCrossProducts: seed%2 == 1,
				}
				wo, err := New(base).WorkOptimalBaseline()
				if err != nil {
					t.Fatal(err)
				}
				for _, bushy := range []bool{false, true} {
					for _, coverCap := range []int{0, 8} {
						for _, limited := range []bool{false, true} {
							if (n == 7 || bushy && n == 6) && seed != int64(si+1) ||
								bushy && n > 5 && (coverCap == 0 || n == 7 && !limited) {
								continue
							}
							opt := base
							opt.CoverCap = coverCap
							if limited {
								opt.WorkLimit = 1.5 * wo.Work()
							}
							cases = append(cases, &parallelCase{shape: shape, n: n, seed: seed, bushy: bushy, coverCap: coverCap, limited: limited, opt: opt})
						}
					}
				}
			}
		}
	}
	return cases
}

// TestParallelDPIsSerialDP: a search whose layers are solved on helpers (the
// root's priced on one) returns the serial search's frontier, best plan and
// counters bit for bit. Every case runs at GOMAXPROCS 1, where dp takes no
// helper, and at 4, where every root layer must have run on two goroutines;
// no search slot is held once the searches return.
func TestParallelDPIsSerialDP(t *testing.T) {
	cases := parallelCases(t)
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			s := New(c.opt)
			run := s.PODPLeftDeep
			if c.bushy {
				run = s.PODPBushy
			}
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			c.prints[i] = searchPrint(res)
			c.rootWorkers[i] = res.Stats.Layers[len(res.Stats.Layers)-1].Workers
		}
		runtime.GOMAXPROCS(prev)
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v n=%d seed=%d bushy=%v cap=%d limited=%v", c.shape, c.n, c.seed, c.bushy, c.coverCap, c.limited)
		if c.prints[0] != c.prints[1] {
			t.Errorf("%s: on helpers\n%s\nserially\n%s", name, c.prints[1], c.prints[0])
		}
		if c.rootWorkers != [2]int{1, 2} {
			t.Errorf("%s: root layer on %d goroutines at GOMAXPROCS 1 and %d at 4, want 1 and 2", name, c.rootWorkers[0], c.rootWorkers[1])
		}
	}
	if n := searching.Load(); n != 0 {
		t.Errorf("%d search slots still held", n)
	}
	t.Logf("%d searches identical at GOMAXPROCS 1 and 4", len(cases))
}

// TestGoldensHoldAtEveryGOMAXPROCS runs the serial oracles — the Table 1
// counts and the partial-order frontiers — at GOMAXPROCS 1, 2 and 4.
func TestGoldensHoldAtEveryGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) }) // after the parallel subtests
			TestTable1Golden(t)
			TestPODPFrontierGolden(t)
		})
	}
}

// TestSearchRunsAloneWhenEveryCoreSearches: with every search slot held — as
// by GOMAXPROCS searches running at once — a cover-set search takes no
// helper: every layer runs on one goroutine and the baseline before them.
func TestSearchRunsAloneWhenEveryCoreSearches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	held := takeSlots(4)
	defer releaseSlots(held)
	if held != 4 {
		t.Fatalf("took %d of 4 idle slots", held)
	}
	_, _, st, err := FullCoverSet(newSearcher(t, cliqueCfg(5), nil).opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range append([]LayerRecord{*st.Baseline}, st.Layers...) {
		if l.Workers != 1 {
			t.Errorf("layer %d ran on %d goroutines with every slot held", l.Card, l.Workers)
		}
	}
	if end := st.Baseline.Start.Add(time.Duration(st.Baseline.WallNanos)); end.After(st.Layers[0].Start) {
		t.Errorf("baseline ended %v after layer 1 started", end.Sub(st.Layers[0].Start))
	}
}
