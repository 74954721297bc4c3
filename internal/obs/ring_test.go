package obs

import (
	"sync"
	"testing"
)

type stamped struct {
	seq uint64
	val int
}

func TestRing(t *testing.T) {
	r := NewRing(3, func(v *stamped, seq uint64) { v.seq = seq })
	if r.Len() != 0 || len(r.Snapshot(0)) != 0 {
		t.Fatal("new ring should be empty")
	}
	if _, ok := r.At(1); ok {
		t.Error("At on an empty ring should miss")
	}
	for i := 1; i <= 5; i++ {
		if seq := r.Add(stamped{val: i * 10}); seq != uint64(i) {
			t.Fatalf("Add #%d returned seq %d: sequence numbers must be dense", i, seq)
		}
	}
	// Capacity 3 after 5 adds: 1 and 2 are evicted, 3..5 retained.
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for seq := uint64(0); seq <= 7; seq++ {
		v, ok := r.At(seq)
		if want := seq >= 3 && seq <= 5; ok != want {
			t.Errorf("At(%d) ok = %v, want %v", seq, ok, want)
		} else if ok && (v.seq != seq || v.val != int(seq)*10) {
			t.Errorf("At(%d) = %+v: wrong slot or unstamped", seq, v)
		}
	}
	all := r.Snapshot(0)
	if len(all) != 3 || all[0].seq != 5 || all[1].seq != 4 || all[2].seq != 3 {
		t.Errorf("Snapshot(0) = %+v, want seqs 5,4,3", all)
	}
	if two := r.Snapshot(2); len(two) != 2 || two[0].seq != 5 || two[1].seq != 4 {
		t.Errorf("Snapshot(2) = %+v, want seqs 5,4", two)
	}
	if many := r.Snapshot(99); len(many) != 3 {
		t.Errorf("Snapshot(99) returned %d values, want the 3 retained", len(many))
	}

	// A ring that has not wrapped yet reports only what it holds.
	young := NewRing[int](8, nil)
	young.Add(7)
	young.Add(8)
	if s := young.Snapshot(0); len(s) != 2 || s[0] != 8 || s[1] != 7 {
		t.Errorf("unwrapped Snapshot = %v, want [8 7]", s)
	}
}

func TestRingNilIsDisabled(t *testing.T) {
	var r *Ring[int]
	if r.Add(1) != 0 || r.Len() != 0 || r.Snapshot(0) != nil {
		t.Error("nil ring should accept and report nothing")
	}
	if _, ok := r.At(1); ok {
		t.Error("nil ring At should miss")
	}
}

func TestRingAddAllocatesNothing(t *testing.T) {
	r := NewRing(4, func(v *stamped, seq uint64) { v.seq = seq })
	for i := 0; i < 4; i++ {
		r.Add(stamped{})
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Add(stamped{val: 1}) }); allocs != 0 {
		t.Fatalf("Add at capacity allocated %v times per op, want 0", allocs)
	}
}

// TestRingConcurrent runs writers against readers (meaningful under -race):
// every snapshot must be a contiguous newest-first run of sequence numbers.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(16, func(v *stamped, seq uint64) { v.seq = seq })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				seq := r.Add(stamped{val: i})
				if v, ok := r.At(seq); ok && v.seq != seq {
					t.Errorf("At(%d) returned seq %d", seq, v.seq)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		snap := r.Snapshot(0)
		for j := 1; j < len(snap); j++ {
			if snap[j].seq != snap[j-1].seq-1 {
				t.Fatalf("snapshot not contiguous newest-first at %d: %d after %d", j, snap[j].seq, snap[j-1].seq)
			}
		}
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Errorf("Len = %d, want 16", r.Len())
	}
	if newest := r.Snapshot(1); len(newest) != 1 || newest[0].seq != 2000 {
		t.Errorf("newest = %+v, want seq 2000", newest)
	}
}
