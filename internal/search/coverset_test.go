package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paropt/internal/cost"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// vecCand builds a candidate with a given last-tuple work vector; times are
// the vector max, first-tuple usage zero.
func vecCand(name string, w ...float64) *Candidate {
	v := cost.Vec(w)
	return &Candidate{
		Node: &plan.Node{Relation: name},
		Desc: cost.ResDescriptor{
			First: cost.ZeroRV(len(w)),
			Last:  cost.RV(v.Max(), v),
		},
	}
}

// Insert offers c the way the search does (insert): the dominance test, then
// the admit step. It reports whether c was kept.
func (cs *CoverSet) Insert(c *Candidate) bool { return !cs.Dominated(c) && cs.Admit(c) }

func TestCoverSetInsert(t *testing.T) {
	cs := NewCoverSet(ResourceVectorMetric{L: 2})
	a := vecCand("a", 1, 5)
	b := vecCand("b", 5, 1)
	c := vecCand("c", 6, 6) // dominated by both
	d := vecCand("d", 0, 0) // dominates everything

	if !cs.Insert(a) || !cs.Insert(b) {
		t.Fatal("incomparable candidates must both be kept")
	}
	if cs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cs.Len())
	}
	if cs.Insert(c) {
		t.Error("dominated candidate must be rejected")
	}
	if !cs.Insert(d) {
		t.Error("dominating candidate must be kept")
	}
	if cs.Len() != 1 || cs.Plans()[0] != d {
		t.Fatalf("cover after dominator = %d plans", cs.Len())
	}
	if cs.Inserted != 3 || cs.Rejected != 1 {
		t.Errorf("counters: inserted=%d rejected=%d", cs.Inserted, cs.Rejected)
	}
	if cs.Empty() {
		t.Error("Empty wrong")
	}
}

func TestCoverSetPairwiseIncomparable(t *testing.T) {
	m := ResourceVectorMetric{L: 3}
	cs := NewCoverSet(m)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cs.Insert(vecCand("x", rng.Float64(), rng.Float64(), rng.Float64()))
	}
	plans := cs.Plans()
	for i := range plans {
		for j := range plans {
			if i != j && m.Dominates(plans[i], plans[j]) {
				t.Fatalf("stored plans %d and %d are comparable", i, j)
			}
		}
	}
}

// Property: after any insertion sequence, every offered candidate is covered
// by some member of the cover set.
func TestQuickCoverSetCovers(t *testing.T) {
	m := ResourceVectorMetric{L: 2}
	f := func(raw []uint16) bool {
		cs := NewCoverSet(m)
		var offered []*Candidate
		for i := 0; i+1 < len(raw); i += 2 {
			c := vecCand("p", float64(raw[i]%64), float64(raw[i+1]%64))
			offered = append(offered, c)
			cs.Insert(c)
		}
		for _, o := range offered {
			covered := false
			for _, p := range cs.Plans() {
				if m.Dominates(p, o) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetricDominance(t *testing.T) {
	cheapFast := vecCand("a", 1, 1)
	dearSlow := vecCand("b", 3, 3)
	skewA := vecCand("c", 1, 4)
	skewB := vecCand("d", 4, 1)

	w := WorkMetric{}
	if !w.Dominates(cheapFast, dearSlow) || w.Dominates(dearSlow, cheapFast) {
		t.Error("WorkMetric dominance wrong")
	}
	if !w.Dominates(skewA, skewB) || !w.Dominates(skewB, skewA) {
		t.Error("WorkMetric is a total order: equal work is mutually dominant")
	}
	if w.Dims() != 1 || w.Name() != "work" {
		t.Error("WorkMetric metadata wrong")
	}

	r := RTMetric{}
	if !r.Dominates(cheapFast, dearSlow) {
		t.Error("RTMetric dominance wrong")
	}
	if r.Dims() != 1 || r.Name() != "response-time" {
		t.Error("RTMetric metadata wrong")
	}

	v := ResourceVectorMetric{L: 2}
	if v.Dominates(skewA, skewB) || v.Dominates(skewB, skewA) {
		t.Error("skewed vectors must be incomparable under the vector metric")
	}
	if !v.Dominates(cheapFast, skewA) {
		t.Error("componentwise-smaller vector must dominate")
	}
	if v.Dims() != 6 {
		t.Errorf("vector metric dims = %d, want 2(l+1) = 6", v.Dims())
	}
}

func TestOrderedMetric(t *testing.T) {
	colA := query.ColumnRef{Relation: "R", Column: "a"}
	ordered := vecCand("a", 1, 1)
	ordered.Node.Order = plan.Ordering{colA}
	unordered := vecCand("b", 2, 2)

	m := OrderedMetric{Base: ResourceVectorMetric{L: 2}}
	if !m.Dominates(ordered, unordered) {
		t.Error("cheaper+ordered must dominate dearer+unordered")
	}
	// The unordered plan can never dominate the ordered one, even if cheaper.
	cheapUnordered := vecCand("c", 0.5, 0.5)
	if m.Dominates(cheapUnordered, ordered) {
		t.Error("order dimension must block dominance")
	}
	if m.Dims() != 7 || m.Name() != "resource-vector+order" {
		t.Error("OrderedMetric metadata wrong")
	}
}

func TestComparators(t *testing.T) {
	fast := vecCand("fast", 1, 3)   // rt 3, work 4
	cheap := vecCand("cheap", 2, 2) // rt 2, work 4
	if !ByRT(cheap, fast) || ByRT(fast, cheap) {
		t.Error("ByRT wrong")
	}
	dear := vecCand("dear", 5, 0) // rt 5, work 5
	if !ByWork(fast, dear) {
		t.Error("ByWork wrong")
	}
	// Ties fall through to the plan string.
	x := vecCand("a", 1, 1)
	y := vecCand("b", 1, 1)
	if !ByRT(x, y) || ByRT(y, x) {
		t.Error("ByRT tie-break by string wrong")
	}
	if !ByWork(x, y) || ByWork(y, x) {
		t.Error("ByWork tie-break by string wrong")
	}
}
