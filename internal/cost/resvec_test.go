package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	u := Vec{2, 1, 0}
	if got := v.Add(u); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(u); got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("Sub (floored) = %v", got)
	}
	if v.Max() != 3 || v.Sum() != 6 {
		t.Error("Max/Sum wrong")
	}
	if !NewVec(3).IsZero() || v.IsZero() {
		t.Error("IsZero wrong")
	}
	if !u.LessEq(Vec{2, 2, 1}) || v.LessEq(u) {
		t.Error("LessEq wrong")
	}
	if got := v.String(); got != "[1 2 3]" {
		t.Errorf("String = %q", got)
	}
	if got := v.Add(u); &got[0] == &v[0] || &got[0] == &u[0] {
		t.Error("Add must not alias its operands")
	}
}

func TestResVectorSeqMinus(t *testing.T) {
	a := RV(10, Vec{6, 4})
	b := RV(4, Vec{2, 2})
	if got := a.Seq(b); got.T != 14 || got.W[0] != 8 {
		t.Errorf("Seq = %v", got)
	}
	if got := a.Minus(b); got.T != 6 || got.W[0] != 4 || got.W[1] != 2 {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); got.T != 0 || !got.W.IsZero() {
		t.Errorf("Minus floors: %v", got)
	}
}

// TestParContention verifies desideratum 1: IPE on disjoint resources costs
// max; IPE on the same resource degrades to the sequential sum.
func TestParContention(t *testing.T) {
	disjoint := RV(10, Vec{10, 0}).Par(RV(8, Vec{0, 8}))
	if disjoint.T != 10 {
		t.Errorf("disjoint IPE T = %g, want 10 (max)", disjoint.T)
	}
	shared := RV(10, Vec{10, 0}).Par(RV(8, Vec{8, 0}))
	if shared.T != 18 {
		t.Errorf("contended IPE T = %g, want 18 (sequential sum)", shared.T)
	}
	if shared.W[0] != 18 || shared.W[1] != 0 {
		t.Errorf("Par work = %v", shared.W)
	}
}

func TestDelta(t *testing.T) {
	// No contention: residuals on different resources → δ = 1.
	p := RV(10, Vec{10, 0})
	c := RV(10, Vec{0, 10})
	if got := Delta(1, p, c); got != 1 {
		t.Errorf("δ(no contention) = %g, want 1", got)
	}
	// Full contention: t' = 20, max = 10, sum−max = 10 → δ = 1+k.
	c2 := RV(10, Vec{10, 0})
	if got := Delta(1, p, c2); got != 2 {
		t.Errorf("δ(full contention) = %g, want 2", got)
	}
	if got := Delta(0.5, p, c2); got != 1.5 {
		t.Errorf("δ(k=0.5) = %g, want 1.5", got)
	}
	// k = 0 disables the penalty.
	if got := Delta(0, p, c2); got != 1 {
		t.Errorf("δ(k=0) = %g, want 1", got)
	}
	// One empty side: denominator vanishes → δ = 1.
	if got := Delta(1, p, ZeroRV(2)); got != 1 {
		t.Errorf("δ(empty side) = %g, want 1", got)
	}
}

// TestDesideratum2 verifies that a DPE estimate ranges from IPE-like (no
// contention) to worse than SE (full contention with k > 0).
func TestDesideratum2(t *testing.T) {
	mk := func(w Vec) ResDescriptor {
		return ResDescriptor{First: ZeroRV(2), Last: RV(w.Max(), w)}
	}
	// No contention: pipeline ≈ IPE.
	free := mk(Vec{10, 0}).Pipe(mk(Vec{0, 10}), 1)
	if free.RT() != 10 {
		t.Errorf("uncontended DPE = %g, want 10 (IPE)", free.RT())
	}
	// Full contention, k = 1: pipeline = 40, worse than SE = 20.
	jam := mk(Vec{10, 0}).Pipe(mk(Vec{10, 0}), 1)
	se := 20.0
	if jam.RT() <= se {
		t.Errorf("contended DPE = %g, want > SE (%g)", jam.RT(), se)
	}
	// Same contention with k = 0: exactly SE.
	k0 := mk(Vec{10, 0}).Pipe(mk(Vec{10, 0}), 0)
	if k0.RT() != se {
		t.Errorf("contended DPE(k=0) = %g, want %g", k0.RT(), se)
	}
}

// TestExample3Calculus reproduces Example 3 of the paper: the resource-vector
// calculus yields RT(p1)=20 < RT(p2)=25 for the subplans yet
// RT(NL(p1,·))=60 > RT(NL(p2,·))=40 for their extensions — the principle of
// optimality is violated by response time.
func TestExample3Calculus(t *testing.T) {
	// Resources: (disk1, disk2).
	p1 := ResDescriptor{First: ZeroRV(2), Last: RV(20, Vec{20, 0})}
	p2 := ResDescriptor{First: ZeroRV(2), Last: RV(25, Vec{0, 25})}
	join := ResDescriptor{First: ZeroRV(2), Last: RV(40, Vec{40, 0})}

	if p1.RT() != 20 || p2.RT() != 25 {
		t.Fatalf("subplan RTs = %g, %g; want 20, 25", p1.RT(), p2.RT())
	}
	nl1 := p1.Pipe(join, 0)
	nl2 := p2.Pipe(join, 0)
	if nl1.RT() != 60 {
		t.Errorf("RT(NL(p1)) = %g, want 60", nl1.RT())
	}
	if nl2.RT() != 40 {
		t.Errorf("RT(NL(p2)) = %g, want 40", nl2.RT())
	}
	if nl1.Last.W[0] != 60 || nl1.Last.W[1] != 0 {
		t.Errorf("NL(p1) usage = %v, want <(60,60),(0,0)>", nl1.Last)
	}
	if nl2.Last.W[0] != 40 || nl2.Last.W[1] != 25 {
		t.Errorf("NL(p2) usage = %v, want <(40,40),(25,25)>", nl2.Last)
	}
}

func TestSyncDescriptor(t *testing.T) {
	d := ResDescriptor{First: RV(1, Vec{1}), Last: RV(5, Vec{5})}
	s := d.Sync()
	if s.First.T != 5 || s.First.W[0] != 5 {
		t.Errorf("Sync = %v", s)
	}
	ss := s.Sync()
	if ss.First.T != s.First.T || ss.Last.T != s.Last.T {
		t.Error("Sync must be idempotent")
	}
}

func TestTreeDescFrontsRunInParallel(t *testing.T) {
	// Two sync'd (materialized) operands on different disks: fronts overlap.
	l := ResDescriptor{First: RV(6, Vec{6, 0}), Last: RV(6, Vec{6, 0})}
	r := ResDescriptor{First: RV(13, Vec{0, 13}), Last: RV(13, Vec{0, 13})}
	root := ResDescriptor{First: ZeroRV(2), Last: RV(2, Vec{2, 0})}
	got := TreeDesc(l, r, root, 0)
	// Fronts: max(6,13) = 13; residuals zero; root pipes 2 more.
	if got.RT() != 15 {
		t.Errorf("TreeDesc RT = %g, want 15", got.RT())
	}
	if got.Work() != 21 {
		t.Errorf("TreeDesc work = %g, want 21", got.Work())
	}
}

func TestTreeDescContendedFronts(t *testing.T) {
	// Same-disk fronts serialize: 6+13 = 19, then the root's 2.
	l := ResDescriptor{First: RV(6, Vec{6, 0}), Last: RV(6, Vec{6, 0})}
	r := ResDescriptor{First: RV(13, Vec{13, 0}), Last: RV(13, Vec{13, 0})}
	root := ResDescriptor{First: ZeroRV(2), Last: RV(2, Vec{0, 2})}
	got := TreeDesc(l, r, root, 0)
	if got.RT() != 21 {
		t.Errorf("contended fronts RT = %g, want 21", got.RT())
	}
}

func TestRTAndWork(t *testing.T) {
	d := ResDescriptor{First: ZeroRV(2), Last: RV(7, Vec{3, 4})}
	if d.RT() != 7 || d.Work() != 7 {
		t.Errorf("RT=%g Work=%g", d.RT(), d.Work())
	}
}

func TestScaleTime(t *testing.T) {
	r := RV(10, Vec{10}).ScaleTime(1.5)
	if r.T != 15 || r.W[0] != 10 {
		t.Errorf("ScaleTime = %v; work must not scale", r)
	}
}

func TestStrings(t *testing.T) {
	if got := RV(2, Vec{1, 0}).String(); got != "(2, [1 0])" {
		t.Errorf("ResVector.String = %q", got)
	}
	d := ResDescriptor{First: ZeroRV(1), Last: RV(1, Vec{1})}
	if got := d.String(); got != "first=(0, [0]) last=(1, [1])" {
		t.Errorf("ResDescriptor.String = %q", got)
	}
}

// Property: Par is commutative and associative, and its time dominates both
// operand times and every summed component.
func TestQuickParAlgebra(t *testing.T) {
	mk := func(t1, a, b uint8) ResVector {
		w := Vec{float64(a), float64(b)}
		tt := float64(t1)
		if m := w.Max(); m > tt {
			tt = m
		}
		return RV(tt, w)
	}
	f := func(t1, a1, b1, t2, a2, b2, t3, a3, b3 uint8) bool {
		x, y, z := mk(t1, a1, b1), mk(t2, a2, b2), mk(t3, a3, b3)
		xy := x.Par(y)
		yx := y.Par(x)
		if xy.T != yx.T || xy.W[0] != yx.W[0] || xy.W[1] != yx.W[1] {
			return false
		}
		l := x.Par(y).Par(z)
		r := x.Par(y.Par(z))
		if math.Abs(l.T-r.T) > 1e-9 {
			return false
		}
		return xy.T >= x.T && xy.T >= y.T && xy.T >= xy.W.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pipe with k ≥ 0 is bounded below by the contention-free
// pipeline and never beats the slower of first-tuple delivery paths.
func TestQuickPipeBounds(t *testing.T) {
	f := func(pw, cw uint8, kRaw uint8) bool {
		k := float64(kRaw%4) * 0.5
		p := ResDescriptor{First: ZeroRV(1), Last: RV(float64(pw), Vec{float64(pw)})}
		c := ResDescriptor{First: ZeroRV(1), Last: RV(float64(cw), Vec{float64(cw)})}
		got := p.Pipe(c, k)
		k0 := p.Pipe(c, 0)
		return got.RT() >= k0.RT() && got.RT() >= got.First.T && got.Work() == k0.Work()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: δ(k) ∈ [1, 1+k].
func TestQuickDeltaRange(t *testing.T) {
	f := func(t1, a1, b1, t2, a2, b2 uint8, kRaw uint8) bool {
		k := float64(kRaw % 5)
		p := RV(float64(t1)+Vec{float64(a1), float64(b1)}.Max(), Vec{float64(a1), float64(b1)})
		c := RV(float64(t2)+Vec{float64(a2), float64(b2)}.Max(), Vec{float64(a2), float64(b2)})
		d := Delta(k, p, c)
		return d >= 1 && d <= 1+k+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
