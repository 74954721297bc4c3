package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestProfilerObserveAndSnapshot(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 5; i++ {
		cache := "hit"
		if i == 0 {
			cache = "miss"
		}
		p.Observe(Record{
			Fingerprint:   "fp-a",
			Catalog:       "v1",
			Query:         "SELECT * FROM A",
			PlanSig:       "HJ(scan(A), scan(B))",
			Cache:         cache,
			ElapsedMicros: int64(1000 * (i + 1)),
		})
	}
	p.Observe(Record{Fingerprint: "fp-b", Cache: "miss", Error: "boom"})
	p.Observe(Record{Fingerprint: "", Cache: "miss"}) // ignored

	if p.Len() != 2 {
		t.Fatalf("expected 2 profiles, got %d", p.Len())
	}
	snaps := p.Snapshot()
	byFP := map[string]ProfileSnapshot{}
	for _, s := range snaps {
		byFP[s.Fingerprint] = s
	}
	a := byFP["fp-a"]
	if a.Count != 5 || a.Hits != 4 || a.Misses != 1 {
		t.Errorf("fp-a counts wrong: %+v", a)
	}
	if a.PlanSig != "HJ(scan(A), scan(B))" || a.Query != "SELECT * FROM A" {
		t.Errorf("fp-a identity wrong: %+v", a)
	}
	if a.P50Micros < 1000 || a.P50Micros > 5000 {
		t.Errorf("fp-a p50 out of range: %g", a.P50Micros)
	}
	if b := byFP["fp-b"]; b.Errors != 1 || b.Count != 1 {
		t.Errorf("fp-b error accounting wrong: %+v", b)
	}
}

func TestProfilerDriftMarking(t *testing.T) {
	p := NewProfiler()
	p.Observe(Record{Fingerprint: "hot", Cache: "miss", Query: "q"})

	// One huge sample is not enough (DriftMinSamples = 2)...
	p.Observe(Record{Fingerprint: "hot", Cache: "hit", RelErr: 0.5, QErr: 50})
	if d := p.Drifted(); len(d) != 0 {
		t.Fatalf("one sample should not mark drift, got %v", d)
	}
	// ...a second consistent one is.
	p.Observe(Record{Fingerprint: "hot", Cache: "hit", RelErr: 0.5, QErr: 50})
	d := p.Drifted()
	if len(d) != 1 || d[0].Fingerprint != "hot" {
		t.Fatalf("expected hot marked drifted, got %v", d)
	}
	if d[0].EWMAQErr < DriftThreshold {
		t.Errorf("EWMA q-error should exceed threshold, got %g", d[0].EWMAQErr)
	}

	// A sweep resets the mark; it must be re-earned.
	p.MarkSwept("hot")
	if d := p.Drifted(); len(d) != 0 {
		t.Fatalf("sweep should clear the mark, got %v", d)
	}
	snap := p.Snapshot()[0]
	if snap.Sweeps != 1 {
		t.Errorf("sweeps counter should be 1, got %d", snap.Sweeps)
	}

	// Accurate samples never mark.
	p.Observe(Record{Fingerprint: "hot", Cache: "hit", RelErr: 0.1, QErr: 1.05})
	p.Observe(Record{Fingerprint: "hot", Cache: "hit", RelErr: 0.1, QErr: 1.05})
	if d := p.Drifted(); len(d) != 0 {
		t.Fatalf("accurate template marked drifted: %v", d)
	}
}

func TestProfilerCapacityOverflow(t *testing.T) {
	p := newProfiler(3)
	for i := 0; i < 10; i++ {
		p.Observe(Record{Fingerprint: fmt.Sprintf("fp-%d", i), Cache: "miss"})
	}
	if p.Len() != 3 {
		t.Errorf("capacity 3 exceeded: %d profiles", p.Len())
	}
	if p.Overflow() != 7 {
		t.Errorf("overflow should be 7, got %d", p.Overflow())
	}
	// Existing fingerprints still update at capacity.
	p.Observe(Record{Fingerprint: "fp-0", Cache: "hit"})
	if p.Overflow() != 7 {
		t.Errorf("update of resident profile must not overflow, got %d", p.Overflow())
	}
	// A resident template keeps its last searched plan; one the full
	// profiler does not hold keeps none, and counts as overflow only when
	// its request is observed.
	for i, want := range []bool{false, true} {
		if prev, seen := p.SwapPlan("fp-0", SearchedPlan{Sig: fmt.Sprint("plan-", i)}); seen != want || (seen && prev.Sig != "plan-0") {
			t.Errorf("resident swap %d: prev %+v seen %v", i, prev, seen)
		}
		if _, seen := p.SwapPlan("fp-new", SearchedPlan{Sig: "plan"}); seen {
			t.Errorf("swap %d of an untracked template saw a previous plan", i)
		}
	}
	if p.Len() != 3 || p.Overflow() != 7 {
		t.Errorf("swaps changed the profiler: %d profiles, overflow %d", p.Len(), p.Overflow())
	}
}

func TestProfilerConcurrency(t *testing.T) {
	p := NewProfiler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fp := fmt.Sprintf("fp-%d", i%20)
				rec := Record{Fingerprint: fp, Cache: "hit", ElapsedMicros: 100}
				if i%50 == 0 {
					rec.RelErr, rec.QErr = 0.2, 1.5
				}
				p.Observe(rec)
				p.SwapPlan(fp, SearchedPlan{Sig: fmt.Sprintf("plan-%d", g)})
			}
		}(g)
	}
	// Snapshots race against writers by design.
	for i := 0; i < 20; i++ {
		_ = p.Snapshot()
		_ = p.Drifted()
	}
	wg.Wait()
	var total int64
	for _, s := range p.Snapshot() {
		total += s.Count
	}
	if total != 8*500 {
		t.Errorf("lost observations: %d != %d", total, 8*500)
	}
}

func TestSortByAndFormatTable(t *testing.T) {
	snaps := []ProfileSnapshot{
		{Fingerprint: "aaa", Count: 5, P99Micros: 100, EWMAQErr: 1},
		{Fingerprint: "bbb", Count: 50, P99Micros: 10, EWMAQErr: 9, Drifted: true, PlanSig: "HJ(scan(A), scan(B))"},
		{Fingerprint: "ccc", Count: 20, P99Micros: 1000, EWMAQErr: 3},
	}
	SortBy(snaps, "traffic")
	if snaps[0].Fingerprint != "bbb" {
		t.Errorf("traffic order wrong: %v", snaps)
	}
	SortBy(snaps, "latency")
	if snaps[0].Fingerprint != "ccc" {
		t.Errorf("latency order wrong: %v", snaps)
	}
	SortBy(snaps, "drift")
	if snaps[0].Fingerprint != "bbb" {
		t.Errorf("drift order wrong: %v", snaps)
	}
	table := FormatTable(snaps)
	if !strings.Contains(table, "DRIFT") || !strings.Contains(table, "bbb") {
		t.Errorf("table missing content:\n%s", table)
	}
}
