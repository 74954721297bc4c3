package search

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"paropt/internal/cost"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// answerPrint renders what a caller holds of a search's answer: per
// candidate its plan string and the bits of its descriptor, and every field
// of every plan node it reaches, links as addresses.
func answerPrint(cands []*Candidate) string {
	var b strings.Builder
	seen := map[*plan.Node]bool{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		idx := ""
		if n.Index != nil {
			idx = n.Index.Name
		}
		fmt.Fprintf(&b, "  %p %q %v %q %p %p %v %v %v %d %d %v\n",
			n, n.Relation, n.Access, idx, n.Left, n.Right, n.Method, n.Preds, n.Rels, n.Card, n.Width, n.Order)
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	for _, c := range cands {
		fmt.Fprintf(&b, "%s %p", c.Node, c)
		for _, v := range []cost.ResVector{c.Desc.First, c.Desc.Last} {
			fmt.Fprintf(&b, " %x", math.Float64bits(float64(v.T)))
			for _, w := range v.W {
				fmt.Fprintf(&b, " %x", math.Float64bits(w))
			}
		}
		b.WriteByte('\n')
		walk(c.Node)
	}
	return b.String()
}

// TestAnswerOutlivesSlabReuse: what a search returns shares nothing with the
// slabs its covers were kept in. A left-deep and a bushy frontier, and the
// frontier and §2 baseline of a cover-set search, are the same, bit for bit
// and node for node, after 52 searches over other queries, four at a time,
// have taken, filled and cleared every idle slab — and each member still
// carries the descriptor its plan prices to.
func TestAnswerOutlivesSlabReuse(t *testing.T) {
	chain := query.DefaultGenConfig()
	chain.Relations, chain.Shape = 5, query.Chain
	opt := genOptions(t, chain)
	leftDeep, err := New(opt).PODPLeftDeep()
	if err != nil {
		t.Fatal(err)
	}
	bushy, err := New(opt).PODPBushy()
	if err != nil {
		t.Fatal(err)
	}
	baseline, frontier, _, err := FullCoverSet(opt)
	if err != nil {
		t.Fatal(err)
	}
	answers := map[string][]*Candidate{
		"left-deep":   leftDeep.Frontier,
		"bushy":       bushy.Frontier,
		"cover-set":   frontier,
		"§2 baseline": {baseline},
	}
	prints := map[string]string{}
	for name, cands := range answers {
		if len(cands) == 0 {
			t.Fatalf("%s: no plan", name)
		}
		prints[name] = answerPrint(cands)
	}

	const goroutines, each = 4, 13
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				k := g*each + i
				cfg := query.DefaultGenConfig()
				cfg.Relations, cfg.Shape, cfg.Seed = 5, []query.Shape{query.Star, query.Cycle, query.Clique}[k%3], int64(10+k)
				var err error
				switch k % 3 {
				case 0:
					_, err = New(genOptions(t, cfg)).PODPLeftDeep()
				case 1:
					cfg.Relations = 4
					_, err = New(genOptions(t, cfg)).PODPBushy()
				default:
					_, _, _, err = FullCoverSet(genOptions(t, cfg))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for name, cands := range answers {
		if got := answerPrint(cands); got != prints[name] {
			t.Errorf("%s changed while other searches reused the slabs:\nnow\n%s\nbefore\n%s", name, got, prints[name])
		}
		for _, c := range cands {
			d, _, err := opt.Model.PlanCost(c.Node, opt.Expand, opt.Annotate)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(d, c.Desc) {
				t.Fatalf("%s: %s carries %v, its plan prices to %v", name, c.Node, c.Desc, d)
			}
		}
	}
}
