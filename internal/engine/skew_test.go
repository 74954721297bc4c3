package engine

import (
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/storage"
)

// skewTable generates a 1-column table with the given Zipf skew.
func skewTable(t *testing.T, skew float64, card int64) *storage.Table {
	t.Helper()
	cat := catalog.New()
	rel := cat.MustAddRelation(catalog.Relation{
		Name:    "S",
		Columns: []catalog.Column{{Name: "k", NDV: card / 4, Width: 8, Skew: skew}},
		Card:    card,
		Pages:   card / 100,
	})
	return storage.Generate(rel, 5)
}

func TestPartitionImbalanceUniform(t *testing.T) {
	tab := skewTable(t, 0, 40_000)
	imb, err := PartitionImbalance(tab, "k", 8)
	if err != nil {
		t.Fatal(err)
	}
	if imb < 1 || imb > 1.2 {
		t.Errorf("uniform imbalance = %.3f, want ≈ 1", imb)
	}
}

func TestPartitionImbalanceSkewed(t *testing.T) {
	uniform := skewTable(t, 0, 40_000)
	skewed := skewTable(t, 1.0, 40_000)
	iu, err := PartitionImbalance(uniform, "k", 8)
	if err != nil {
		t.Fatal(err)
	}
	is, err := PartitionImbalance(skewed, "k", 8)
	if err != nil {
		t.Fatal(err)
	}
	if is < iu*1.5 {
		t.Errorf("skewed imbalance %.3f should clearly exceed uniform %.3f", is, iu)
	}
	// A Zipf hot key can dominate a partition: with s=2 the mode takes a
	// large fraction of all rows.
	if is < 2 {
		t.Errorf("zipf(2) imbalance = %.3f, want ≥ 2", is)
	}
}

// keyTable builds a one-column table directly from the given key values.
func keyTable(keys []int64) *storage.Table {
	rel := &catalog.Relation{
		Name:    "K",
		Columns: []catalog.Column{{Name: "k", NDV: int64(len(keys)), Width: 8}},
		Card:    int64(len(keys)),
	}
	return storage.NewTable(rel, [][]int64{keys})
}

// TestPartitionImbalanceSequentialKeys: sequential keys (the classic
// auto-increment ID) must stay balanced at every partition count. Mixing
// the partition count into the hash *before* finalizing — or reducing with
// `%` on a weak hash — aliases consecutive keys into few buckets for
// non-power-of-two counts.
func TestPartitionImbalanceSequentialKeys(t *testing.T) {
	keys := make([]int64, 60_000)
	for i := range keys {
		keys[i] = int64(i)
	}
	tab := keyTable(keys)
	for _, parts := range []int{2, 3, 5, 7, 8, 12, 16} {
		imb, err := PartitionImbalance(tab, "k", parts)
		if err != nil {
			t.Fatal(err)
		}
		if imb > 1.1 {
			t.Errorf("parts=%d: sequential-key imbalance = %.3f, want ≤ 1.1", parts, imb)
		}
	}
}

// TestPartitionImbalanceLowCardinalityKeys: with far more distinct keys than
// partitions but few keys overall (e.g. 64 distinct status codes across 8
// partitions), the imbalance is bounded by balls-in-bins variance, not by
// systematic aliasing.
func TestPartitionImbalanceLowCardinalityKeys(t *testing.T) {
	const distinct, repeat = 64, 1_000
	keys := make([]int64, 0, distinct*repeat)
	for k := 0; k < distinct; k++ {
		for r := 0; r < repeat; r++ {
			keys = append(keys, int64(k)*10) // strided, low-entropy values
		}
	}
	tab := keyTable(keys)
	for _, parts := range []int{2, 4, 8} {
		imb, err := PartitionImbalance(tab, "k", parts)
		if err != nil {
			t.Fatal(err)
		}
		// 64 keys over ≤8 buckets: expected max/mean for a random spread
		// stays well under 2; systematic aliasing would push it toward
		// parts (all keys in one bucket).
		if imb >= 2 {
			t.Errorf("parts=%d: low-cardinality imbalance = %.3f, want < 2", parts, imb)
		}
	}
}

func TestPartitionImbalanceErrors(t *testing.T) {
	tab := skewTable(t, 0, 100)
	if _, err := PartitionImbalance(tab, "zz", 4); err == nil {
		t.Error("unknown column should error")
	}
	if got, err := PartitionImbalance(tab, "k", 0); err != nil || got != 1 {
		t.Errorf("parts clamp: %v %v", got, err)
	}
}

// TestSkewedJoinStillCorrect: parallel joins over skewed keys remain
// semantically exact — skew costs time, never correctness.
func TestSkewedJoinStillCorrect(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"A", "B"} {
		cat.MustAddRelation(catalog.Relation{
			Name: name,
			Columns: []catalog.Column{
				{Name: "k", NDV: 50, Width: 8, Skew: 1.2},
			},
			Card:  2_000,
			Pages: 20,
		})
	}
	q := &query.Query{
		Relations: []string{"A", "B"},
		Joins: []query.JoinPredicate{{
			Left:  query.ColumnRef{Relation: "A", Column: "k"},
			Right: query.ColumnRef{Relation: "B", Column: "k"},
		}},
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat, 8)
	e := &Executor{DB: db, Q: q, Parallel: 1}
	est := plan.NewEstimator(cat, q)
	a, _ := est.Leaf("A", plan.SeqScan, nil)
	b, _ := est.Leaf("B", plan.SeqScan, nil)
	hj, _ := est.Join(a, b, plan.HashJoin)
	serial, err := e.Execute(hj)
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = 6
	par, err := e.Execute(hj)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != par.Fingerprint() {
		t.Error("skewed parallel join differs from serial")
	}
	ref, err := ReferenceJoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != ref.Fingerprint() {
		t.Error("skewed join differs from reference")
	}
	if serial.Len() == 0 {
		t.Error("skewed join produced nothing; fixture broken")
	}
}

// TestParallelScanCorrect: striped parallel heap scans deliver exactly the
// serial row multiset, and sorted relations keep their serial (ordered)
// scan path.
func TestParallelScanCorrect(t *testing.T) {
	e, est := rigScan(t)
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	e.Parallel = 1
	serial, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = 5
	par, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != par.Fingerprint() {
		t.Error("parallel scan changed the result")
	}
}

func rigScan(t *testing.T) (*Executor, *plan.Estimator) {
	t.Helper()
	e, est := rig(t, 3000, 2000)
	e.Q.Selections = []query.Selection{{
		Column: query.ColumnRef{Relation: "R1", Column: "fk"}, Value: 9,
	}}
	return e, est
}
