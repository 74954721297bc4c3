package vec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"paropt/internal/storage"
)

func rows(vals ...[]int64) []storage.Row {
	out := make([]storage.Row, len(vals))
	for i, v := range vals {
		out[i] = storage.Row(v)
	}
	return out
}

// fromRows transposes tuples into a dense batch; no tuples make a
// zero-width one.
func fromRows(in []storage.Row) *Vec {
	if len(in) == 0 {
		return &Vec{}
	}
	v := &Vec{Cols: make([][]int64, len(in[0]))}
	for c := range v.Cols {
		v.Cols[c] = make([]int64, len(in))
		for r, row := range in {
			v.Cols[c][r] = row[c]
		}
	}
	return v
}

func TestAppendRows(t *testing.T) {
	v := &Vec{Cols: [][]int64{{1, 2, 3}, {10, 20, 30}}}
	if v.Len() != 3 || v.Width() != 2 {
		t.Fatalf("Len/Width = %d/%d, want 3/2", v.Len(), v.Width())
	}
	want := rows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	if got := v.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendRows = %v, want %v", got, want)
	}
	if v.Bytes() != 3*2*8 {
		t.Fatalf("Bytes = %d, want 48", v.Bytes())
	}
}

func TestEmptyVec(t *testing.T) {
	v := &Vec{}
	if v.Len() != 0 || v.Bytes() != 0 {
		t.Fatalf("empty vec Len=%d Bytes=%d", v.Len(), v.Bytes())
	}
	if got := v.AppendRows(nil); len(got) != 0 {
		t.Fatalf("empty vec materialized %d rows", len(got))
	}
	var nilVec *Vec
	if nilVec.Len() != 0 {
		t.Fatal("nil vec Len != 0")
	}
}

func TestFilterEqSharesStorage(t *testing.T) {
	v := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{1, 30}))
	f := v.FilterEq(0, 1)
	if f.Len() != 2 {
		t.Fatalf("filtered Len = %d, want 2", f.Len())
	}
	if &f.Cols[0][0] != &v.Cols[0][0] {
		t.Fatal("FilterEq copied column storage")
	}
	want := rows([]int64{1, 10}, []int64{1, 30})
	if got := f.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered rows = %v, want %v", got, want)
	}
	// Filtering an already-selected vec composes.
	f2 := f.FilterEq(1, 30)
	if got := f2.AppendRows(nil); !reflect.DeepEqual(got, rows([]int64{1, 30})) {
		t.Fatalf("double filter = %v", got)
	}
	// Original unchanged.
	if v.Len() != 3 {
		t.Fatal("FilterEq mutated its receiver")
	}
}

// TestFilterEqNoMatches: a filter rejecting every row must yield Len() == 0,
// not a nil selection (which would mean "all rows live").
func TestFilterEqNoMatches(t *testing.T) {
	v := fromRows(rows([]int64{1, 10}, []int64{2, 20}))
	f := v.FilterEq(0, 99)
	if f.Len() != 0 {
		t.Fatalf("no-match filter Len = %d, want 0", f.Len())
	}
	if f.Sel == nil {
		t.Fatal("no-match filter left Sel nil (all rows live)")
	}
	if got := f.AppendRows(nil); len(got) != 0 {
		t.Fatalf("no-match filter materialized %v", got)
	}
	// Filtering the empty result again stays empty.
	if f2 := f.FilterEq(1, 10); f2.Len() != 0 {
		t.Fatalf("refilter of empty = %d rows", f2.Len())
	}
}

// TestFilterEqSizesShardSelection: a batch longer than a pooled slab (a
// placed shard) gets a selection sized to its matches — a pooled slab when
// they fit one — not to its rows, and filters the same rows, dense and
// selected.
func TestFilterEqSizesShardSelection(t *testing.T) {
	const n = 10_000
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 7)
	}
	even := make([]int32, 0, n/2)
	for r := int32(0); r < n; r += 2 {
		even = append(even, r)
	}
	v := &Vec{Cols: [][]int64{col}}
	for _, in := range []*Vec{v, {Cols: v.Cols, Sel: even}, v.FilterEq(0, 3)} {
		f := in.FilterEq(0, 3)
		var want []int32
		for _, r := range in.Sel {
			if col[r] == 3 {
				want = append(want, r)
			}
		}
		if in.Sel == nil {
			for r := int32(3); r < n; r += 7 {
				want = append(want, r)
			}
		}
		if !slices.Equal(f.Sel, want) {
			t.Fatalf("%d live rows: selection %v..., want %v...", in.Len(), f.Sel[:min(4, len(f.Sel))], want[:min(4, len(want))])
		}
		if in.Len() > DefaultBatchRows && cap(f.Sel) > max(len(want)+1, DefaultBatchRows) {
			t.Errorf("%d live rows, %d matches: selection capacity %d", in.Len(), len(want), cap(f.Sel))
		}
		f.Release()
	}
}

func TestCompact(t *testing.T) {
	v := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{1, 30}))
	f := v.FilterEq(0, 1)
	c := f.Compact()
	if c.Sel != nil {
		t.Fatal("Compact left a selection")
	}
	if !reflect.DeepEqual(c.AppendRows(nil), f.AppendRows(nil)) {
		t.Fatal("Compact changed the live rows")
	}
	if d := c.Compact(); d != c {
		t.Fatal("Compact of dense vec should be identity")
	}
}

// TestWindowSplit: windows of a dense and of a selected Vec tile its live
// rows in order and share its column storage.
func TestWindowSplit(t *testing.T) {
	var in []storage.Row
	for i := int64(0); i < 10; i++ {
		in = append(in, storage.Row{i, i % 3})
	}
	dense := fromRows(in)
	for name, v := range map[string]*Vec{"dense": dense, "selected": dense.FilterEq(1, 1), "empty": dense.FilterEq(1, 9)} {
		want := v.AppendRows(nil)
		var got []storage.Row
		windows := 0
		for lo := 0; lo < v.Len(); lo += 4 {
			w := v.Window(lo, min(lo+4, v.Len()))
			if w.Len() > 4 || (v.Sel == nil) != (w.Sel == nil) {
				t.Fatalf("%s: window of %d rows, selected=%v", name, w.Len(), w.Sel != nil)
			}
			at := 0 // a selected window keeps whole columns
			if v.Sel == nil {
				at = lo
			}
			if &w.Cols[0][0] != &v.Cols[0][at] {
				t.Fatalf("%s: window at %d copied its column", name, lo)
			}
			got = w.AppendRows(got)
			windows++
		}
		if !reflect.DeepEqual(got, want) || windows != (len(want)+3)/4 {
			t.Fatalf("%s: %d windows gave %v, want %v", name, windows, got, want)
		}
	}
}

// TestBuilderViewResetKeepsSlab: View aliases the accumulated rows, Reset
// empties the builder without dropping its slab, and the next batch is
// written over the same storage — the partition-side reuse the wire relies on.
func TestBuilderViewResetKeepsSlab(t *testing.T) {
	src := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	b := NewBuilder(2, 2)
	b.AppendGather(0, src.Cols, []int32{0, 1})
	first := b.View()
	if !b.Full() || !reflect.DeepEqual(first.AppendRows(nil), rows([]int64{1, 10}, []int64{2, 20})) {
		t.Fatalf("view = %v", first.AppendRows(nil))
	}
	slab := &first.Cols[0][0]
	b.Reset()
	if b.Len() != 0 || b.Room() != 2 {
		t.Fatalf("after Reset: len %d room %d", b.Len(), b.Room())
	}
	b.AppendGather(0, src.Cols, []int32{2})
	second := b.View()
	if &second.Cols[0][0] != slab {
		t.Fatal("Reset dropped the slab")
	}
	if !reflect.DeepEqual(second.AppendRows(nil), rows([]int64{3, 30})) {
		t.Fatalf("second view = %v", second.AppendRows(nil))
	}
	if v := b.Flush(); v == nil || v.Len() != 1 || b.Len() != 0 {
		t.Fatal("Flush after Reset must still hand the batch off")
	}
}

func TestBuilderFlushAndRoom(t *testing.T) {
	src := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	sel := src.FilterEq(0, 2)
	b := NewBuilder(4, 2)
	if b.Room() != 2 {
		t.Fatalf("fresh Room = %d, want 2", b.Room())
	}
	b.AppendGather(0, sel.Cols, sel.Sel)    // the selection's one live row = physical row 1
	b.AppendGather(2, src.Cols, []int32{0}) // physical row 0
	if b.Len() != 1 || b.Full() || b.Room() != 1 {
		t.Fatalf("Len=%d Full=%v Room=%d", b.Len(), b.Full(), b.Room())
	}
	out := b.Flush()
	want := rows([]int64{2, 20, 1, 10})
	if got := out.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("built = %v, want %v", got, want)
	}
	if b.Len() != 0 || b.Room() != 2 {
		t.Fatal("Flush did not reset")
	}
	if b.Flush() != nil {
		t.Fatal("empty Flush should be nil")
	}
	// A flushed batch owns its slab: refilling the builder must not touch it.
	b.AppendGather(0, src.Cols, []int32{2, 2})
	b.AppendGather(2, src.Cols, []int32{2, 2})
	if got := out.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed batch changed under the builder: %v", got)
	}
}

// TestAppendGather: the columnar join emit — gathered indices may repeat
// and run out of order (one probe row matching many build rows and vice
// versa), and the two halves of a row gather from different sources.
func TestAppendGather(t *testing.T) {
	left := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	buf := NewBuffer(2)
	buf.Append(fromRows(rows([]int64{7, 70}, []int64{8, 80})))

	b := NewBuilder(4, 8)
	b.AppendGather(0, left.Cols, []int32{2, 0, 0, 1})
	buf.Gather(b, 2, []int32{1, 0, 1, 0})
	want := rows([]int64{3, 30, 8, 80}, []int64{1, 10, 7, 70}, []int64{1, 10, 8, 80}, []int64{2, 20, 7, 70})
	if got := b.Flush().AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("gather = %v, want %v", got, want)
	}
}

func TestBufferAppendCompactsSelection(t *testing.T) {
	buf := NewBuffer(2)
	v := fromRows(rows([]int64{1, 10}, []int64{2, 20}, []int64{1, 30}))
	start := buf.Append(v.FilterEq(0, 1))
	if start != 0 || buf.Len() != 2 {
		t.Fatalf("start=%d len=%d", start, buf.Len())
	}
	if start = buf.Append(v); start != 2 || buf.Len() != 5 {
		t.Fatalf("second append start=%d len=%d", start, buf.Len())
	}
	if buf.Value(1, 1) != 30 {
		t.Fatalf("Value(1,1) = %d, want 30", buf.Value(1, 1))
	}
	var col []int64
	for r := int32(0); r < int32(buf.Len()); r++ {
		col = append(col, buf.Col(1).At(r))
	}
	if !reflect.DeepEqual(col, []int64{10, 30, 10, 20, 30}) {
		t.Fatalf("Col(1) = %v", col)
	}
	buf.Release()
	if buf.Len() != 0 || buf.Width() != 2 {
		t.Fatal("Release should zero length, keep width")
	}
}

func TestHashTableProbe(t *testing.T) {
	h := NewHashTable()
	keys := []int64{5, 7, 5, 9, 5}
	for _, k := range keys {
		h.Insert(k)
	}
	// Probe yields hash-equal candidates; callers confirm against the key
	// column they buffered (verify mirrors that contract).
	probe := func(k int64) []int32 {
		var got []int32
		h.Probe(k, func(r int32) bool {
			if keys[r] == k {
				got = append(got, r)
			}
			return true
		})
		return got
	}
	if got := probe(5); !reflect.DeepEqual(got, []int32{4, 2, 0}) {
		t.Fatalf("probe(5) = %v, want [4 2 0]", got)
	}
	if got := probe(9); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("probe(9) = %v", got)
	}
	if got := probe(42); got != nil {
		t.Fatalf("probe of absent key yielded %v", got)
	}
	// Early stop.
	calls := 0
	h.Probe(5, func(r int32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early-stop probe made %d calls", calls)
	}
	if h.Bytes() <= 0 {
		t.Fatal("Bytes must report the metadata footprint")
	}
}

// TestHashTableGrowAgainstMap cross-checks the chained table against a Go
// map through many grow cycles and adversarial key patterns (sequential,
// duplicated, negative).
func TestHashTableGrowAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHashTable()
	ref := map[int64][]int32{}
	all := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		var k int64
		switch i % 3 {
		case 0:
			k = int64(i / 2) // sequential with dups
		case 1:
			k = -int64(rng.Intn(50)) // hot negatives
		default:
			k = rng.Int63()
		}
		h.Insert(k)
		all = append(all, k)
		ref[k] = append(ref[k], int32(i))
	}
	if h.n != 20000 {
		t.Fatalf("Len = %d", h.n)
	}
	for k, want := range ref {
		var got []int32
		h.Probe(k, func(r int32) bool {
			if all[r] == k { // caller-side verification
				got = append(got, r)
			}
			return true
		})
		// Probe returns newest first.
		for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
			got[i], got[j] = got[j], got[i]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d: probe = %v, want %v", k, got, want)
		}
	}
}

// TestBufferGrowth: a buffer's columns are chunk lists, so an appended row
// never moves — not across single-row appends, not across batches that
// straddle a chunk boundary — and the buffer holds its 8 B per value plus at
// most one partial chunk per column.
func TestBufferGrowth(t *testing.T) {
	buf := NewBuffer(3)
	one := fromRows(rows([]int64{1, 2, 3}))
	batch := fromRows(rowsOf(700))
	type home struct {
		row int
		at  *int64
	}
	var homes []home
	at := func(c, r int) *int64 { return &buf.cols[c][r>>chunkBits][r&chunkMask] }
	for i := 0; i < 10_000; i++ {
		var start int
		if i%100 == 0 {
			start = buf.Append(batch.FilterEq(1, 0))
		} else {
			start = buf.Append(one)
		}
		homes = append(homes, home{start, at(2, start)})
	}
	n := buf.Len()
	for _, h := range homes {
		if at(2, h.row) != h.at {
			t.Fatalf("row %d moved", h.row)
		}
	}
	chunks := (n + DefaultBatchRows - 1) / DefaultBatchRows
	for c := range buf.cols {
		if len(buf.cols[c]) != chunks {
			t.Fatalf("column %d holds %d chunks for %d rows, want %d", c, len(buf.cols[c]), n, chunks)
		}
	}
	if buf.Value(2, n-1) != 3 || buf.Value(0, 1) != 7 || buf.Value(2, 100) != 3 {
		t.Fatal("rows lost across chunks")
	}
	buf.Release()
	if buf.Len() != 0 || buf.Width() != 3 || buf.cols[0] != nil {
		t.Fatal("Release should hand the chunks back, keep width")
	}
}

// rowsOf is n 3-column rows (i, i%7, -i).
func rowsOf(n int) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		out[i] = storage.Row{int64(i), int64(i % 7), -int64(i)}
	}
	return out
}
