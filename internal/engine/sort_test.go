package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paropt/internal/vec"
)

// TestSortOrderMatchesStableSort is the oracle of the merge join's sort: the
// radix order of a buffered column must be exactly slices.SortStableFunc's
// on the keys from arrival order — by key, then row — over empty, one-row
// and chunk-straddling buffers, negative keys, the int64 extremes (six
// passes), keys sharing every digit but one, and equal keys (no pass at
// all); and arrival order when the side has no sort.
func TestSortOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := map[string]func(i int) int64{
		"small":    func(int) int64 { return rng.Int63n(50) - 25 },
		"negative": func(int) int64 { return -rng.Int63n(1 << 30) },
		"extremes": func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.Intn(7)]
		},
		"wide":       func(int) int64 { return rng.Int63() - rng.Int63() },
		"one-digit":  func(int) int64 { return 1<<50 | rng.Int63n(8)<<22 },
		"equal":      func(int) int64 { return -7 },
		"descending": func(i int) int64 { return int64(-i) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 1023, 1025, 5000} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = gen(i)
				}
				buf := vec.NewBuffer(2)
				buf.Append(&vec.Vec{Cols: [][]int64{make([]int64, n), keys}})
				defer buf.Release()
				want := make([]int32, n)
				for i := range want {
					want[i] = int32(i)
				}
				slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
				check := func(by int, want []int32) {
					t.Helper()
					o := sortOrder(buf, by)
					defer o.Release()
					if o != nil && len(o) != (n+vec.DefaultBatchRows-1)/vec.DefaultBatchRows {
						t.Fatalf("by %d: order of %d chunks for %d rows", by, len(o), n)
					}
					for i, w := range want {
						if got := rowAt(o, i); got != w {
							t.Fatalf("by %d: position %d holds row %d, want %d", by, i, got, w)
						}
					}
				}
				check(1, want)
				for i := range want {
					want[i] = int32(i)
				}
				check(-1, want)
			})
		}
	}
}

// BenchmarkSortOrder times a merge join's sort of one 60 k-row side whose
// keys span 2^20 values (two radix passes).
func BenchmarkSortOrder(b *testing.B) {
	const n = 60_000
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
	}
	buf := vec.NewBuffer(1)
	buf.Append(&vec.Vec{Cols: [][]int64{keys}})
	for range b.N {
		sortOrder(buf, 0).Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/sort")
}
