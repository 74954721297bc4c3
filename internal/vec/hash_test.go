package vec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// indexOf buffers vals and indexes them, as a hash join's build does.
func indexOf(vals []int64) (*HashTable, *Buffer) {
	buf := NewBuffer(1)
	buf.Append(&Vec{Cols: [][]int64{vals}})
	return buf.Index(0), buf
}

// TestBatchKernelsAgainstMapOracle is the differential property test of the
// join kernels: Buffer.Index + ProbeBatch must produce exactly the pair
// sequence of a map[int64][]int32 join, over uniform, Zipf, duplicate-heavy
// and empty inputs, keys packed at either end of the int64 range and wide
// ones — so builds take both layouts — with and without selection vectors
// on either side, over a build side buffered from many batches, and when
// cut at every possible limit.
func TestBatchKernelsAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.3, 1, 40)
	gens := map[string]func() int64{
		"uniform":         func() int64 { return rng.Int63n(64) },
		"zipf":            func() int64 { return int64(zipf.Uint64()) },
		"duplicate-heavy": func() int64 { return rng.Int63n(3) - 1 },
		"wide":            func() int64 { return rng.Int63() - rng.Int63() },
		"dense-bottom":    func() int64 { return math.MinInt64 + rng.Int63n(24) },
		"dense-top":       func() int64 { return math.MaxInt64 - rng.Int63n(24) },
	}
	sizes := []struct{ build, probe int }{{0, 0}, {0, 17}, {23, 0}, {1, 1}, {60, 45}, {300, 120}, {1100, 8}}
	for name, gen := range gens {
		for _, sz := range sizes {
			for _, withSel := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dx%d/sel=%v", name, sz.build, sz.probe, withSel), func(t *testing.T) {
					// Build side arrives in batches, buffered and then
					// indexed; with selections only the live rows are
					// buffered.
					var build []int64
					buf := NewBuffer(1)
					for left := sz.build; left > 0; {
						n := min(left, 1+rng.Intn(50))
						left -= n
						batch := make([]int64, n)
						for i := range batch {
							batch[i] = gen()
						}
						v := &Vec{Cols: [][]int64{batch}}
						if withSel {
							v.Sel = randomSel(rng, n)
							for _, r := range v.Sel {
								build = append(build, batch[r])
							}
						} else {
							build = append(build, batch...)
						}
						buf.Append(v)
					}
					h := buf.Index(0)
					defer h.Release()
					if h.n != len(build) {
						t.Fatalf("table Len = %d, buffered %d", h.n, len(build))
					}
					if byValue := h.span != 0; byValue != (spanOf(build) < 4*len(build)) {
						t.Fatalf("by value = %v over %d rows spanning %d", byValue, len(build), spanOf(build))
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

// spanOf is max-min+1 over keys, saturated at math.MaxInt; 0 for none.
func spanOf(keys []int64) int {
	if len(keys) == 0 {
		return 0
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	if d := uint64(hi - lo); d < math.MaxInt {
		return int(d) + 1
	}
	return math.MaxInt
}

// TestProbeBatchConfirmsKeysUnderHashCollision: keys that share a 32-bit
// table hash land in one bucket of a hashed table and pass the hash
// prefilter; only the comparison against the build key column tells them
// apart.
func TestProbeBatchConfirmsKeysUnderHashCollision(t *testing.T) {
	pairs := collidingKeys(t, 3)
	var build, probe []int64
	for _, p := range pairs {
		build = append(build, p[0], p[0]) // only the first key of each pair is built
		probe = append(probe, p[1], p[0])
	}
	h, _ := indexOf(build)
	defer h.Release()
	if h.span != 0 {
		t.Fatalf("colliding keys indexed by value over a span of %d", h.span)
	}
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
	for at := range len(build) {
		e := h.ents[0][at]
		if p := pairs[entryRow(e)/2]; entryHash(e) != uint32(storage.Hash64(p[1])) {
			t.Fatalf("row %d: stored hash %#x, probe key hashes to %#x", entryRow(e), entryHash(e), uint32(storage.Hash64(p[1])))
		}
	}
}

// TestProbeBatchMatchesSerialWalk is the sequence-exact oracle of the
// probe: the pairs, in order, of the map join the chained table's serial
// walk produced — probe-row order, a row's matches newest build row first —
// under limits from one pair to more than a batch, over buckets holding
// 1–4 000 duplicates of a key, so calls stop and resume inside a bucket,
// with and without a probe selection, on both layouts. The hashed build adds
// one bucket of 4 200 entries that two keys share, so a walk skips another
// key's entries, and keys whose 32-bit hashes collide; the by-value build
// is probed with keys below and above its span.
func TestProbeBatchMatchesSerialWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// dupBuild is keys 0–8 with 1–4 000 copies each, then 3 000 keys drawn
	// from [100, 2 100).
	dupBuild := func() []int64 {
		var build []int64
		for k, dups := range []int{1, 2, 3, 7, 40, 300, 1000, 2500, 4000} {
			for range dups {
				build = append(build, int64(k))
			}
		}
		for range 3000 {
			build = append(build, 100+rng.Int63n(2000))
		}
		return build
	}
	check := func(t *testing.T, h *HashTable, build, probe []int64) {
		t.Helper()
		for _, sel := range [][]int32{nil, randomSel(rng, len(probe))} {
			want := oraclePairs(build, probe, sel)
			for _, limit := range []int{1, 7, 100, 1024, 5000} {
				if limit == 1 && len(want) > 200_000 {
					continue
				}
				if got := probeAll(t, h, build, probe, sel, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("sel=%v limit %d: %d pairs, want %d; first difference at %d", sel != nil, limit, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
	t.Run("hashed", func(t *testing.T) {
		build := dupBuild()
		for _, p := range collidingKeys(t, 4) {
			build = append(build, p[0], p[0], p[0])
		}
		// Key big shares the bucket of the 4 000 copies of key 8, with 200
		// of its own.
		mask := uint32(bucketsFor(len(build)+200) - 1)
		big := int64(1 << 40)
		for uint32(storage.Hash64(big))&mask != uint32(storage.Hash64(8))&mask {
			big++
		}
		for range 200 {
			build = append(build, big)
		}
		rng.Shuffle(len(build), func(i, j int) { build[i], build[j] = build[j], build[i] })
		h, _ := indexOf(build)
		defer h.Release()
		if h.span != 0 || h.mask != mask {
			t.Fatalf("table span %d, mask %#x; the test placed keys under mask %#x", h.span, h.mask, mask)
		}
		if b := uint32(storage.Hash64(8)) & mask; h.off[b+1]-h.off[b] != 4200 {
			t.Fatalf("shared bucket holds %d entries, want 4200", h.off[b+1]-h.off[b])
		}
		probe := []int64{8, 7, 0, big, -1, 8}
		for range 2000 {
			probe = append(probe, rng.Int63n(2100))
		}
		for _, p := range collidingKeys(t, 4) {
			probe = append(probe, p[1], p[0])
		}
		rng.Shuffle(len(probe)-6, func(i, j int) { probe[6+i], probe[6+j] = probe[6+j], probe[6+i] })
		check(t, h, build, probe)
	})
	t.Run("by-value", func(t *testing.T) {
		build := dupBuild()
		rng.Shuffle(len(build), func(i, j int) { build[i], build[j] = build[j], build[i] })
		h, _ := indexOf(build)
		defer h.Release()
		if lo, span := int64(0), spanOf(build); h.span != uint64(span) || h.lo != lo {
			t.Fatalf("table span %d from %d, want %d from %d", h.span, h.lo, span, lo)
		}
		if n := bucketAt(h.offc, 9) - bucketAt(h.offc, 8); n != 4000 {
			t.Fatalf("key 8's bucket holds %d entries, want 4000", n)
		}
		probe := []int64{8, 7, 0, -1, 2100, 8, math.MinInt64, math.MaxInt64}
		for range 2000 {
			probe = append(probe, rng.Int63n(2200)-50)
		}
		rng.Shuffle(len(probe)-8, func(i, j int) { probe[8+i], probe[8+j] = probe[8+j], probe[8+i] })
		check(t, h, build, probe)
	})
}

// TestLayoutBoundary pins the layout rule — by value below a span of 4n,
// hashed from 4n on — at its edge, at both ends of the int64 range and
// across zero, and the by-value probe's span check against keys below the
// least and above the greatest, where k-lo wraps.
func TestLayoutBoundary(t *testing.T) {
	const n = 100
	// spread is n keys from lo spanning exactly span values.
	spread := func(lo int64, span int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = lo + int64(i*(span-1)/(n-1))
		}
		return keys
	}
	cases := []struct {
		name    string
		build   []int64
		byValue bool
	}{
		{"span 4n-1", spread(0, 4*n-1), true},
		{"span 4n", spread(0, 4*n), false},
		{"span 4n+1", spread(0, 4*n+1), false},
		{"negative span 4n-1", spread(-1000, 4*n-1), true},
		{"across zero span 4n", spread(-200, 4*n), false},
		{"bottom", spread(math.MinInt64, 2*n), true},
		{"bottom span 4n", spread(math.MinInt64, 4*n), false},
		{"top", spread(math.MaxInt64-2*n+1, 2*n), true},
		{"top span 4n-1", spread(math.MaxInt64-4*n+2, 4*n-1), true},
		{"whole range", []int64{math.MinInt64, 0, math.MaxInt64, -1}, false},
		{"one key", []int64{-7, -7, -7}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, _ := indexOf(c.build)
			defer h.Release()
			if byValue := h.span != 0; byValue != c.byValue {
				t.Fatalf("by value = %v over %d rows spanning %d, want %v", byValue, len(c.build), spanOf(c.build), c.byValue)
			}
			if c.byValue && h.span != uint64(spanOf(c.build)) {
				t.Fatalf("table span %d, keys span %d", h.span, spanOf(c.build))
			}
			lo, hi := slices.Min(c.build), slices.Max(c.build)
			probe := []int64{lo, hi, lo - 1, hi + 1, lo - 2, hi + 2, math.MinInt64, math.MaxInt64,
				math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1, lo + 1, hi - 1}
			probe = append(probe, c.build...)
			want := oraclePairs(c.build, probe, nil)
			if len(want) < len(c.build) {
				t.Fatalf("oracle found %d pairs for %d built keys", len(want), len(c.build))
			}
			for _, limit := range []int{1, 3, len(want) + 1} {
				if got := probeAll(t, h, c.build, probe, nil, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("limit %d: %d pairs, want %d; first difference at %d", limit, len(got), len(want), firstDiff(got, want))
				}
			}
			// The bench-only Probe walks the same buckets.
			for _, k := range probe {
				var rows []int32
				h.Probe(k, func(row int32) bool {
					if c.build[row] == k {
						rows = append(rows, row)
					}
					return true
				})
				if want := len(oraclePairs(c.build, []int64{k}, nil)); len(rows) != want {
					t.Fatalf("Probe(%d): %d rows, want %d", k, len(rows), want)
				}
			}
		})
	}
}

// firstDiff is the first index at which two pair sequences differ.
func firstDiff(a, b []pair) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestIndexSizesOnce: an index over n rows takes exactly ceil(n/1024) entry
// chunks. A hashed one adds one offset array of at most 4 B per row, so the
// hash join's table costs 8 B/row of entries plus at most 4 B/row of
// offsets; a by-value one adds exactly ceil((span+1)/1024) offset chunks, 8
// B/row plus 4·(span+1)/n B/row and the last chunks' rounding. Bytes reports
// exactly what is held, and Release hands everything back.
func TestIndexSizesOnce(t *testing.T) {
	const n = 100_000
	entChunks := (n + DefaultBatchRows - 1) / DefaultBatchRows
	t.Run("hashed", func(t *testing.T) {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i * 7)
		}
		h, _ := indexOf(keys)
		if len(h.ents) != entChunks || h.span != 0 || h.offc != nil {
			t.Errorf("%d entry chunks, span %d for %d rows, want %d hashed", len(h.ents), h.span, n, entChunks)
		}
		if len(h.off) != len(*h.slab) || 4*len(h.off) > 4*n {
			t.Errorf("%d offsets for %d rows, want <= 4 B/row", len(h.off), n)
		}
		if int(h.off[len(h.off)-1]) != n || h.off[0] != 0 {
			t.Errorf("offsets span [%d, %d), want [0, %d)", h.off[0], h.off[len(h.off)-1], n)
		}
		if want := int64(entChunks)*8*DefaultBatchRows + int64(len(h.off))*4; h.Bytes() != want {
			t.Errorf("Bytes() = %d, holds %d", h.Bytes(), want)
		}
		if perRow := float64(h.Bytes()-8*DefaultBatchRows) / n; perRow > 12 {
			t.Errorf("table metadata = %.1f B/row beyond its partial chunk, want <= 12", perRow)
		}
		h.Release()
		if h.n != 0 || h.Bytes() != 0 || h.ents != nil || h.off != nil {
			t.Error("Release left the table holding rows")
		}
	})
	t.Run("by-value", func(t *testing.T) {
		const span = 3*n - 2
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i*3) - n
		}
		h, _ := indexOf(keys)
		offChunks := (span + 1 + DefaultBatchRows - 1) / DefaultBatchRows
		if len(h.ents) != entChunks || h.span != span || len(h.offc) != offChunks || h.off != nil {
			t.Errorf("%d entry chunks, span %d in %d offset chunks, want %d, %d in %d", len(h.ents), h.span, len(h.offc), entChunks, span, offChunks)
		}
		if bucketAt(h.offc, 0) != 0 || bucketAt(h.offc, span) != n {
			t.Errorf("offsets span [%d, %d), want [0, %d)", bucketAt(h.offc, 0), bucketAt(h.offc, span), n)
		}
		want := int64(entChunks)*8*DefaultBatchRows + int64(offChunks)*4*DefaultBatchRows
		if h.Bytes() != want {
			t.Errorf("Bytes() = %d, holds %d", h.Bytes(), want)
		}
		if perRow, limit := float64(want)/n, 8+4*float64(span+1)/n+float64(12*DefaultBatchRows)/n; perRow > limit {
			t.Errorf("table = %.2f B/row, want <= %.2f", perRow, limit)
		}
		// Keys outside the span have no bucket.
		var cur ProbeCursor
		if l, _, done := h.ProbeBatch([]int64{-n - 1, 2 * n, math.MinInt64, math.MaxInt64}, nil, nil, &cur, 8, nil, nil); len(l) != 0 || !done {
			t.Errorf("keys outside the span matched %d rows", len(l))
		}
		// A bench table reports the same before its first Probe indexes it.
		bench := NewHashTable()
		for _, k := range keys {
			bench.Insert(k)
		}
		if bench.Bytes() != want {
			t.Errorf("inserted table reports %d B before indexing, %d after", bench.Bytes(), want)
		}
		bench.Probe(keys[0], func(int32) bool { return false })
		if bench.span != span || bench.Bytes() != want {
			t.Errorf("indexed bench table: span %d, %d B; want %d, %d", bench.span, bench.Bytes(), span, want)
		}
		bench.Release()
		h.Release()
		if h.n != 0 || h.Bytes() != 0 || h.ents != nil || h.offc != nil || h.span != 0 {
			t.Error("Release left the table holding rows")
		}
	})
}

// BenchmarkProbeBatch times the hash join's kernels on a 60 k-row build
// side, indexed once per iteration ("index"), and probed by 60 k rows
// through ProbeBatch in 1 024-pair calls, as the join's output batches cut
// them: over distinct keys with a third of the probes missing ("probe"), and
// over 150 keys of 400 rows each, so every probe row matches 400 ("dups").
// The distinct keys span 3n values, so they index by value; "hashed" times
// the same over keys spanning 7n values.
func BenchmarkProbeBatch(b *testing.B) {
	const n = 60_000
	rng := rand.New(rand.NewSource(1))
	distinct, sparse, dups := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range distinct {
		distinct[i], sparse[i], dups[i] = int64(i)*3, int64(i)*7, int64(i%150)
	}
	rng.Shuffle(n, func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	rng.Shuffle(n, func(i, j int) { sparse[i], sparse[j] = sparse[j], sparse[i] })
	probe, sparseProbe := make([]int64, n), make([]int64, n)
	for i := range probe {
		probe[i] = rng.Int63n(3 * n / 2)
		sparseProbe[i] = probe[i] * 7 / 3
	}
	for _, c := range []struct {
		name, index  string
		build, probe []int64
	}{{"probe", "index", distinct, probe}, {"hashed", "index-hashed", sparse, sparseProbe}, {"dups", "", dups, dups}} {
		buf := NewBuffer(1)
		buf.Append(&Vec{Cols: [][]int64{c.build}})
		if c.index != "" {
			b.Run(c.index, func(b *testing.B) {
				for range b.N {
					buf.Index(0).Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
		b.Run(c.name, func(b *testing.B) {
			h := buf.Index(0)
			defer h.Release()
			lsel, rsel := make([]int32, 0, DefaultBatchRows), make([]int32, 0, DefaultBatchRows)
			pairs := 0
			for range b.N {
				for lo := 0; lo < n; lo += DefaultBatchRows {
					keys := c.probe[lo:min(lo+DefaultBatchRows, n)]
					var cur ProbeCursor
					for done := false; !done; {
						lsel, rsel, done = h.ProbeBatch(keys, nil, buf.Col(0), &cur, DefaultBatchRows, lsel[:0], rsel[:0])
						pairs += len(lsel)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/probe")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
		})
	}
}
