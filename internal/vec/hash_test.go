package vec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"paropt/internal/storage"
)

// pair is one (physical probe row, dense build row) match.
type pair struct{ probe, build int32 }

// oraclePairs is the reference join of a probe column against build rows: a
// Go map from key to dense build rows, walked per live probe row newest
// build row first — the order ProbeBatch documents.
func oraclePairs(build []int64, probe []int64, sel []int32) []pair {
	index := map[int64][]int32{}
	for r, k := range build {
		index[k] = append(index[k], int32(r))
	}
	var out []pair
	emit := func(p int32) {
		rows := index[probe[p]]
		for i := len(rows) - 1; i >= 0; i-- {
			out = append(out, pair{p, rows[i]})
		}
	}
	if sel == nil {
		for p := range probe {
			emit(int32(p))
		}
	} else {
		for _, p := range sel {
			emit(p)
		}
	}
	return out
}

// columnOf buffers vals as the chunked column ProbeBatch confirms against.
func columnOf(vals []int64) Column {
	buf := NewBuffer(1)
	buf.Append(&Vec{Cols: [][]int64{vals}})
	return buf.Col(0)
}

// probeAll drives ProbeBatch to completion with the given limits (the last
// one repeats), checking the resumption contract on the way.
func probeAll(t *testing.T, h *HashTable, build, probe []int64, sel []int32, limits ...int) []pair {
	t.Helper()
	buildKeys := columnOf(build)
	var out []pair
	var cur ProbeCursor
	var lsel, rsel []int32
	for call := 0; ; call++ {
		limit := limits[min(call, len(limits)-1)]
		var done bool
		lsel, rsel, done = h.ProbeBatch(probe, sel, buildKeys, &cur, limit, lsel[:0], rsel[:0])
		if len(lsel) != len(rsel) || len(lsel) > limit {
			t.Fatalf("call %d: %d/%d pairs under limit %d", call, len(lsel), len(rsel), limit)
		}
		if !done && len(lsel) != limit {
			t.Fatalf("call %d: stopped at %d pairs before limit %d without finishing", call, len(lsel), limit)
		}
		for i := range lsel {
			out = append(out, pair{lsel[i], rsel[i]})
		}
		if done {
			return out
		}
		if call > len(probe)*len(build)+len(probe)+2 {
			t.Fatal("ProbeBatch does not terminate")
		}
	}
}

// randomSel picks an increasing subset of [0, n); never nil.
func randomSel(rng *rand.Rand, n int) []int32 {
	sel := []int32{}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// collidingKeys finds distinct keys whose 32-bit table hashes are equal, by
// birthday search over sequential keys.
func collidingKeys(t *testing.T, want int) [][2]int64 {
	t.Helper()
	seen := map[uint32]int64{}
	var out [][2]int64
	for k := int64(0); k < 2_000_000 && len(out) < want; k++ {
		h := uint32(storage.Hash64(k))
		if prev, ok := seen[h]; ok {
			out = append(out, [2]int64{prev, k})
			continue
		}
		seen[h] = k
	}
	if len(out) < want {
		t.Fatalf("found only %d colliding key pairs", len(out))
	}
	return out
}

// TestBatchKernelsAgainstMapOracle is the differential property test of the
// join kernels: InsertBatch + ProbeBatch must produce exactly the pair
// sequence of a map[int64][]int32 join, over uniform, Zipf, duplicate-heavy
// and empty inputs, with and without selection vectors on either side,
// through table growth, and when cut at every possible limit.
func TestBatchKernelsAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.3, 1, 40)
	gens := map[string]func() int64{
		"uniform":         func() int64 { return rng.Int63n(64) },
		"zipf":            func() int64 { return int64(zipf.Uint64()) },
		"duplicate-heavy": func() int64 { return rng.Int63n(3) - 1 },
		"wide":            func() int64 { return rng.Int63() - rng.Int63() },
	}
	sizes := []struct{ build, probe int }{{0, 0}, {0, 17}, {23, 0}, {1, 1}, {60, 45}, {300, 120}, {1100, 8}}
	for name, gen := range gens {
		for _, sz := range sizes {
			for _, withSel := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dx%d/sel=%v", name, sz.build, sz.probe, withSel), func(t *testing.T) {
					// Build side arrives in batches (growing the table between
					// them); with selections only the live rows are inserted.
					var build []int64
					h := NewHashTable()
					for left := sz.build; left > 0; {
						n := min(left, 1+rng.Intn(50))
						left -= n
						batch := make([]int64, n)
						for i := range batch {
							batch[i] = gen()
						}
						var sel []int32
						if withSel {
							sel = randomSel(rng, n)
							for _, r := range sel {
								build = append(build, batch[r])
							}
						} else {
							build = append(build, batch...)
						}
						h.InsertBatch(batch, sel)
					}
					if h.Len() != len(build) {
						t.Fatalf("table Len = %d, inserted %d", h.Len(), len(build))
					}
					probe := make([]int64, sz.probe)
					for i := range probe {
						probe[i] = gen()
					}
					var sel []int32
					if withSel {
						sel = randomSel(rng, len(probe))
					}
					want := oraclePairs(build, probe, sel)
					if got := probeAll(t, h, build, probe, sel, len(want)+1); !reflect.DeepEqual(got, want) {
						t.Fatalf("unlimited probe: %d pairs, want %d", len(got), len(want))
					}
					// Every cut point (a prime stride of them on the largest
					// outputs): stop after c pairs, resume to the end.
					stride := 1
					if len(want) > 500 {
						stride = 37
					}
					for c := 1; c <= len(want); c += stride {
						if got := probeAll(t, h, build, probe, sel, c, len(want)+1); !reflect.DeepEqual(got, want) {
							t.Fatalf("cut at %d: pair sequence differs from oracle", c)
						}
					}
					// Repeated small limits resume many times within one chain.
					for _, limit := range []int{1, 2, 7} {
						if got := probeAll(t, h, build, probe, sel, limit); !reflect.DeepEqual(got, want) {
							t.Fatalf("limit %d: pair sequence differs from oracle", limit)
						}
					}
				})
			}
		}
	}
}

// TestProbeBatchConfirmsKeysUnderHashCollision: keys that share a 32-bit
// table hash land in one chain and pass the hash prefilter; only the inline
// comparison against the build key column tells them apart.
func TestProbeBatchConfirmsKeysUnderHashCollision(t *testing.T) {
	pairs := collidingKeys(t, 3)
	var build, probe []int64
	for _, p := range pairs {
		build = append(build, p[0], p[0]) // only the first key of each pair is built
		probe = append(probe, p[1], p[0])
	}
	h := NewHashTable()
	h.InsertBatch(build, nil)
	want := oraclePairs(build, probe, nil)
	if len(want) != 2*len(pairs) {
		t.Fatalf("oracle found %d pairs, want %d", len(want), 2*len(pairs))
	}
	for _, limit := range []int{1, 3, len(want) + 1} {
		if got := probeAll(t, h, build, probe, nil, limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: got %v, want %v", limit, got, want)
		}
	}
	// The probe keys' hashes are the ones stored for the built rows — the
	// collision is real.
	for i, p := range pairs {
		if got := linkHash(h.links[0][2*i]); got != uint32(storage.Hash64(p[1])) {
			t.Fatalf("pair %d: stored hash %#x, probe key hashes to %#x", i, got, uint32(storage.Hash64(p[1])))
		}
	}
}

// TestReserveSizesOnce: reserving the build side's row count up front takes
// the bucket array once and the link chunks the rows need, and never
// rehashes, so the blocking join's table costs 8 B/row in ceil(n/1024) link
// chunks plus at most 4 B/row of buckets.
func TestReserveSizesOnce(t *testing.T) {
	const n = 100_000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 7)
	}
	h := NewHashTable()
	h.Reserve(n)
	heads, links := &h.heads[0], h.links[len(h.links)-1]
	h.InsertBatch(keys, nil)
	if &h.heads[0] != heads {
		t.Error("InsertBatch rehashed a reserved table")
	}
	if want := (n + DefaultBatchRows - 1) / DefaultBatchRows; len(h.links) != want || h.links[want-1] != links {
		t.Errorf("%d link chunks after inserting the reserved rows, want the %d reserved", len(h.links), want)
	}
	if len(h.heads) > n {
		t.Errorf("%d buckets for %d rows, want <= 4 B/row", len(h.heads), n)
	}
	if perRow := float64(h.Bytes()-8*DefaultBatchRows) / n; perRow > 12 {
		t.Errorf("table metadata = %.1f B/row beyond its partial chunk, want <= 12", perRow)
	}
	h.Release()
	if h.Len() != 0 || h.Bytes() != 0 {
		t.Error("Release left the table holding rows")
	}
}
