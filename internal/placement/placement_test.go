package placement

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/storage"
)

// portfolioCat is a snowflake-ish fixture mirroring the built-in portfolio
// workload: trades → stocks → sectors along shared-name join keys.
func portfolioCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "trades",
		Columns: []catalog.Column{
			{Name: "trade_id", NDV: 2_000_000, Width: 8},
			{Name: "stock_id", NDV: 20_000, Width: 8},
			{Name: "qty", NDV: 1_000, Width: 8},
		},
		Card: 2_000_000, Pages: 40_000,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "stocks",
		Columns: []catalog.Column{
			{Name: "stock_id", NDV: 20_000, Width: 8},
			{Name: "sector_id", NDV: 100, Width: 8},
		},
		Card: 20_000, Pages: 400,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "sectors",
		Columns: []catalog.Column{
			{Name: "sector_id", NDV: 100, Width: 8},
			{Name: "pe", NDV: 50, Width: 8},
		},
		Card: 100, Pages: 2,
	})
	return cat
}

// TestBuildChoosesJoinKeyColumns: the heuristic must pick the shared-name
// join keys — stock_id for trades (not the higher-NDV trade_id, which no
// other relation shares), stock_id for stocks (NDV breaks the tie with
// sector_id), sector_id for sectors.
func TestBuildChoosesJoinKeyColumns(t *testing.T) {
	cat := portfolioCat(t)
	m, err := Build(cat, "v1", []string{"w1", "w2", "w3"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"trades": "stock_id", "stocks": "stock_id", "sectors": "sector_id"}
	if got := m.Columns(); !reflect.DeepEqual(got, want) {
		t.Errorf("Columns() = %v, want %v", got, want)
	}
	for name, a := range m.Assignments {
		if !reflect.DeepEqual(a.Workers, []string{"w1", "w2", "w3"}) {
			t.Errorf("%s workers = %v, want all three in order", name, a.Workers)
		}
	}
}

// TestBuildIndexTieBreak: with equal shared-name counts, a column that
// leads an index wins over a higher-NDV unindexed one.
func TestBuildIndexTieBreak(t *testing.T) {
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{
		Name: "a",
		Columns: []catalog.Column{
			{Name: "x", NDV: 1_000, Width: 8},
			{Name: "y", NDV: 10_000, Width: 8},
		},
		Card: 10_000, Pages: 100,
	})
	cat.MustAddRelation(catalog.Relation{
		Name: "b",
		Columns: []catalog.Column{
			{Name: "x", NDV: 1_000, Width: 8},
			{Name: "y", NDV: 10_000, Width: 8},
		},
		Card: 10_000, Pages: 100,
	})
	cat.MustAddIndex(catalog.Index{Name: "a_x", Relation: "a", Columns: []string{"x"}})
	m, err := Build(cat, "v", []string{"w"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Assignments["a"].Column; got != "x" {
		t.Errorf("a placed on %q, want indexed tie-break to pick x", got)
	}
	if got := m.Assignments["b"].Column; got != "y" {
		t.Errorf("b placed on %q, want NDV tie-break to pick y", got)
	}
}

func TestBuildValidatesOverrides(t *testing.T) {
	cat := portfolioCat(t)
	m, err := Build(cat, "v", []string{"w"}, 1, map[string]string{"trades": "trade_id"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Assignments["trades"].Column; got != "trade_id" {
		t.Errorf("override ignored: trades placed on %q", got)
	}
	if _, err := Build(cat, "v", []string{"w"}, 1, map[string]string{"trades": "nope"}); err == nil {
		t.Error("unknown override column must be rejected")
	}
	if _, err := Build(cat, "v", nil, 1, nil); err == nil {
		t.Error("empty worker set must be rejected")
	}
}

// TestPruneDropsDeadOwners: pruning keeps survivor order and drops
// relations nobody owns anymore.
func TestPruneDropsDeadOwners(t *testing.T) {
	cat := portfolioCat(t)
	m, err := Build(cat, "v", []string{"w1", "w2", "w3"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := m.Prune([]string{"w3", "w1"})
	for name, a := range live.Assignments {
		if !reflect.DeepEqual(a.Workers, []string{"w1", "w3"}) {
			t.Errorf("%s survivors = %v, want [w1 w3] in original order", name, a.Workers)
		}
	}
	if n := len(m.Prune(nil).Assignments); n != 0 {
		t.Errorf("pruning to nobody kept %d assignments, want 0", n)
	}
}

// TestFingerprintTracksPlacementState: identical builds agree; changing the
// worker set or a partitioning column changes the fingerprint (it feeds
// plan-cache keys, so it must move when costing inputs move).
func TestFingerprintTracksPlacementState(t *testing.T) {
	cat := portfolioCat(t)
	build := func(workers []string, cols map[string]string) string {
		m, err := Build(cat, "v", workers, 1, cols)
		if err != nil {
			t.Fatal(err)
		}
		return m.Fingerprint()
	}
	base := build([]string{"w1", "w2"}, nil)
	if again := build([]string{"w1", "w2"}, nil); again != base {
		t.Errorf("identical builds fingerprint differently: %s vs %s", base, again)
	}
	if fewer := build([]string{"w1"}, nil); fewer == base {
		t.Error("worker-set change must change the fingerprint")
	}
	if repinned := build([]string{"w1", "w2"}, map[string]string{"trades": "trade_id"}); repinned == base {
		t.Error("column change must change the fingerprint")
	}
}

// scanRows is a scan's live rows in row-major form.
func scanRows(t *testing.T, st *Store, spec exchange.ScanSpec, part, parts int) []storage.Row {
	t.Helper()
	v, err := st.ScanPartition(spec, part, parts)
	if err != nil {
		t.Fatalf("%s part %d of %d: %v", spec.Relation, part, parts, err)
	}
	return v.AppendRows(nil)
}

// TestStoreShardsAgreeWithStreamPartitioner: the union of a store's shards
// must be exactly the generated table, each row landing in the same
// partition the exchange layer's hash partitioner would send it to — the
// invariant that makes shipped and streamed plans interchangeable.
func TestStoreShardsAgreeWithStreamPartitioner(t *testing.T) {
	cat := portfolioCat(t)
	const seed, parts = 42, 3
	st := NewStore(cat, seed)
	rel := cat.MustRelation("stocks")
	full := storage.Generate(rel, seed)

	var got []storage.Row
	for part := 0; part < parts; part++ {
		rows := scanRows(t, st, exchange.ScanSpec{Relation: "stocks", HashCol: 0}, part, parts)
		for _, r := range rows {
			if p := storage.Partition(r[0], parts); p != part {
				t.Fatalf("row %v served from partition %d, hashes to %d", r, part, p)
			}
		}
		got = append(got, rows...)
	}
	if len(got) != len(full.Rows) {
		t.Fatalf("shards union = %d rows, table = %d", len(got), len(full.Rows))
	}
	key := func(rows []storage.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = string(rune(r[0])) + "|" + string(rune(r[1]))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(key(got), key(full.Rows)) {
		t.Fatal("shard union differs from the generated table")
	}
}

// TestStoreFiltersAndValidation: equality filters apply after sharding;
// out-of-range partitions and unknown relations error cleanly.
func TestStoreFiltersAndValidation(t *testing.T) {
	cat := portfolioCat(t)
	st := NewStore(cat, 7)
	spec := exchange.ScanSpec{Relation: "sectors", HashCol: 0}
	all := scanRows(t, st, spec, 0, 1)
	if len(all) == 0 {
		t.Fatal("sectors shard empty; fixture broken")
	}
	want := all[0][1]
	spec.Filters = []exchange.ScanFilter{{Col: 1, Val: want}}
	filtered := scanRows(t, st, spec, 0, 1)
	if len(filtered) == 0 || len(filtered) >= len(all) {
		t.Errorf("filter kept %d of %d rows; want a proper nonempty subset", len(filtered), len(all))
	}
	for _, r := range filtered {
		if r[1] != want {
			t.Errorf("filtered row %v fails the predicate", r)
		}
	}
	if _, err := st.ScanPartition(exchange.ScanSpec{Relation: "nope"}, 0, 1); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := st.ScanPartition(exchange.ScanSpec{Relation: "sectors"}, 5, 2); err == nil {
		t.Error("out-of-range partition must error")
	}
}

// TestStoreRefusesOtherStatistics: a store built from catalog A refuses a scan
// stamped with the statistics of catalog B's relation of the same name — its
// rows would be A's — and serves one stamped from its own.
func TestStoreRefusesOtherStatistics(t *testing.T) {
	a, b := portfolioCat(t), portfolioCat(t)
	b.MustRelation("sectors").Card = 300
	st := NewStore(a, 7)
	spec := exchange.ScanSpec{Relation: "sectors", Stats: b.MustRelation("sectors").StatsDigest()}
	if _, err := st.ScanPartition(spec, 0, 1); !errors.Is(err, ErrStaleStats) {
		t.Errorf("scan planned against B's sectors: err = %v, want ErrStaleStats", err)
	}
	spec.Stats = a.MustRelation("sectors").StatsDigest()
	if rows := scanRows(t, st, spec, 0, 1); len(rows) != 100 {
		t.Errorf("scan planned against the store's own sectors: %d rows, want 100", len(rows))
	}
}

// TestPrewarmCachesOwnedShards: a prewarmed worker serves its own shards;
// non-owned shards still materialize lazily (re-dispatch soundness).
func TestPrewarmCachesOwnedShards(t *testing.T) {
	cat := portfolioCat(t)
	m, err := Build(cat, "v", []string{"w1", "w2"}, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(cat, 11)
	if err := st.Prewarm(m, "w2"); err != nil {
		t.Fatal(err)
	}
	// w2 owns shard 1 of 2 of everything; shard 0 (w1's) must still be
	// servable here — any worker can absorb a re-dispatched fragment.
	for _, rel := range cat.RelationNames() {
		a := m.Assignments[rel]
		relMeta := cat.MustRelation(rel)
		col := 0
		for i, c := range relMeta.Columns {
			if c.Name == a.Column {
				col = i
			}
		}
		for part := 0; part < 2; part++ {
			rows := scanRows(t, st, exchange.ScanSpec{Relation: rel, HashCol: col}, part, 2)
			if rel != "sectors" && len(rows) == 0 {
				t.Errorf("%s part %d empty", rel, part)
			}
		}
	}
}

// TestSnapshotRoundTripPreservesPlacementInputs: a catalog rebuilt from its
// snapshot must yield an identical placement map (same fingerprint) and
// bit-identical generated shards — what worker bootstrap relies on.
func TestSnapshotRoundTripPreservesPlacementInputs(t *testing.T) {
	cat := portfolioCat(t)
	data, err := json.Marshal(cat.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc catalog.SnapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	cat2, err := catalog.FromSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Build(cat, "v", []string{"w1", "w2"}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(cat2, "v", []string{"w1", "w2"}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Errorf("placement fingerprints diverge across snapshot round-trip: %s vs %s",
			m1.Fingerprint(), m2.Fingerprint())
	}
	s1, s2 := NewStore(cat, 5), NewStore(cat2, 5)
	spec := exchange.ScanSpec{Relation: "stocks", HashCol: 0}
	if r1, r2 := scanRows(t, s1, spec, 1, 2), scanRows(t, s2, spec, 1, 2); len(r1) == 0 || !reflect.DeepEqual(r1, r2) {
		t.Error("shards generated from the round-tripped catalog differ")
	}
}

// TestColumnarShardsMatchRowOracle: every (relation, hash column, part,
// parts) scan — unfiltered, filtered on each column, filtered twice, and
// filtered on a column the relation lacks — delivers exactly the rows a
// row-at-a-time filter of the generated table keeps, in table order, with the
// unfiltered scan dense and zero-copy (a second scan aliases the same slabs).
// ShardStats counts the resident rows of each distinct shard once.
func TestColumnarShardsMatchRowOracle(t *testing.T) {
	// Small relations with few distinct values, so filters keep several rows
	// and some shards of the 3-row relation are empty.
	cat := catalog.New()
	cat.MustAddRelation(catalog.Relation{Name: "wide", Card: 700, Pages: 7, Columns: []catalog.Column{
		{Name: "a", NDV: 700, Width: 8}, {Name: "b", NDV: 40, Width: 8}, {Name: "c", NDV: 3, Width: 8}, {Name: "d", NDV: 90, Width: 8}}})
	cat.MustAddRelation(catalog.Relation{Name: "thin", Card: 257, Pages: 3, Columns: []catalog.Column{{Name: "k", NDV: 12, Width: 8}}})
	cat.MustAddRelation(catalog.Relation{Name: "tiny", Card: 3, Pages: 1, Columns: []catalog.Column{
		{Name: "k", NDV: 2, Width: 8}, {Name: "v", NDV: 3, Width: 8}}})
	const seed = 23
	st := NewStore(cat, seed)
	var wantShards int
	var wantRows int64
	for _, name := range cat.RelationNames() {
		tab := storage.Generate(cat.MustRelation(name), seed)
		width := len(tab.Rel.Columns)
		for hashCol := 0; hashCol < width; hashCol++ {
			for _, parts := range []int{0, 1, 2, 5} {
				for part := 0; part < max(parts, 1); part++ {
					oracle := func(filters []exchange.ScanFilter) []storage.Row {
						var out []storage.Row
					rows:
						for _, row := range tab.Rows {
							if parts >= 2 && storage.Partition(row[hashCol], parts) != part {
								continue
							}
							for _, f := range filters {
								if f.Col < 0 || f.Col >= width || row[f.Col] != f.Val {
									continue rows
								}
							}
							out = append(out, row)
						}
						return out
					}
					spec := exchange.ScanSpec{Relation: name, HashCol: hashCol}
					v, err := st.ScanPartition(spec, part, parts)
					if err != nil {
						t.Fatal(err)
					}
					all := oracle(nil)
					if v.Sel != nil || v.Width() != width || !reflect.DeepEqual(v.AppendRows(nil), all) {
						t.Fatalf("%s hash %d part %d/%d: unfiltered scan differs from the row oracle", name, hashCol, part, parts)
					}
					if parts != 1 { // parts 0 and 1 name the same shard
						wantShards++
						wantRows += int64(len(all))
					}
					if again, _ := st.ScanPartition(spec, part, parts); len(all) > 0 && &again.Cols[0][0] != &v.Cols[0][0] {
						t.Fatalf("%s hash %d part %d/%d: a second scan copied the shard", name, hashCol, part, parts)
					}
					if len(all) == 0 {
						continue
					}
					probe := all[len(all)/2]
					onKey := exchange.ScanFilter{Col: hashCol, Val: probe[hashCol]}
					for c := -1; c <= width; c++ {
						f := exchange.ScanFilter{Col: c}
						if c >= 0 && c < width {
							f.Val = probe[c]
						}
						for _, filters := range [][]exchange.ScanFilter{{f}, {f, onKey}, {onKey, f}} {
							spec.Filters = filters
							got, err := st.ScanPartition(spec, part, parts)
							if err != nil {
								t.Fatal(err)
							}
							want := oracle(filters)
							if got.Sel == nil || got.Len() != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.AppendRows(nil), want)) {
								t.Fatalf("%s hash %d part %d/%d filters %v: %d rows, oracle keeps %d", name, hashCol, part, parts, filters, got.Len(), len(want))
							}
							if &got.Cols[0][0] != &v.Cols[0][0] {
								t.Fatalf("%s filters %v: a filtered scan copied the shard", name, filters)
							}
						}
					}
				}
			}
		}
	}
	if shards, rows := st.ShardStats(); shards != wantShards || rows != wantRows {
		t.Errorf("ShardStats = %d shards, %d rows; want %d, %d", shards, rows, wantShards, wantRows)
	}
}

// TestStoreMaterializesAShardOnce: scans racing each other (and a prewarm)
// for one shard all get the same slab — the relation is generated once and
// the others wait for it, instead of each building a private copy beside it.
func TestStoreMaterializesAShardOnce(t *testing.T) {
	st := NewStore(portfolioCat(t), 42)
	const callers = 6
	slabs := make([]*int64, callers)
	var wg sync.WaitGroup
	for i := range slabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := st.ScanPartition(exchange.ScanSpec{Relation: "stocks", HashCol: 0}, 1, 3)
			if err != nil || v.Len() == 0 {
				t.Errorf("scan: %d rows, err %v", v.Len(), err)
				return
			}
			slabs[i] = &v.Cols[0][0]
		}()
	}
	wg.Wait()
	for i, p := range slabs {
		if p != slabs[0] {
			t.Errorf("caller %d got its own copy of the shard", i)
		}
	}
	if n, _ := st.ShardStats(); n != 1 {
		t.Errorf("store holds %d shards, want 1", n)
	}
}
