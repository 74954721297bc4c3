package exchange

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// encodeBatch is the payload of the frame writeBatch sends for b.
func encodeBatch(b Batch) []byte {
	var buf bytes.Buffer
	if err := (&frameWriter{w: &buf}).writeBatch(frameLeft, b); err != nil {
		panic(err)
	}
	return buf.Bytes()[5:]
}

// sameBatch reports whether two batches hold the same live rows in the same
// order at the same width.
func sameBatch(a, b Batch) bool {
	return a.Width() == b.Width() && reflect.DeepEqual(a.AppendRows(nil), b.AppendRows(nil))
}

// TestBatchCodecRoundTrip is the codec's property: decode(encode(v)) is
// v.Compact() — dense, same width, same live rows in order — for dense and
// selected inputs at the sizes where a cut could go wrong.
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, rows := range []int{0, 1, 2, 31, vec.DefaultBatchRows, vec.DefaultBatchRows + 1} {
		for _, width := range []int{0, 1, 3, 8} {
			dense := &vec.Vec{Cols: make([][]int64, width)}
			for c := range dense.Cols {
				dense.Cols[c] = make([]int64, rows)
				for r := range dense.Cols[c] {
					dense.Cols[c][r] = int64(rng.Uint64()) // full range, both signs
				}
			}
			var some []int32
			for r := 0; r < rows; r++ {
				if rng.Intn(3) == 0 {
					some = append(some, int32(r))
				}
			}
			inputs := map[string]Batch{"dense": dense}
			if width > 0 {
				inputs["selection"] = &vec.Vec{Cols: dense.Cols, Sel: some}
				inputs["empty-selection"] = &vec.Vec{Cols: dense.Cols, Sel: []int32{}}
			}
			for name, in := range inputs {
				got, err := decodeBatch(encodeBatch(in))
				if err != nil {
					t.Fatalf("%s %d×%d: decode: %v", name, rows, width, err)
				}
				if got.Sel != nil {
					t.Fatalf("%s %d×%d: decode produced a selection", name, rows, width)
				}
				if want := in.Compact(); !sameBatch(got, want) || got.Len() != want.Len() {
					t.Fatalf("%s %d×%d: round trip changed the batch", name, rows, width)
				}
			}
		}
	}
}

// TestEncodeBatchHonorsSelection: a filtered batch ships only its live rows —
// the codec must apply the selection vector, not the physical columns.
func TestEncodeBatchHonorsSelection(t *testing.T) {
	src := fromRows([]storage.Row{{1, 10}, {2, 20}, {1, 30}})
	payload := encodeBatch(src.FilterEq(0, 1))
	if want := 8 + 2*2*8; len(payload) != want {
		t.Fatalf("payload = %d bytes, want %d: only live rows ship", len(payload), want)
	}
	got, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := fromRows([]storage.Row{{1, 10}, {1, 30}}); !sameBatch(got, want) {
		t.Fatalf("rows = %v, want %v", got.AppendRows(nil), want.AppendRows(nil))
	}
}

// batchHeader is an 8-byte batch payload claiming rows × width values.
func batchHeader(rows, width uint32) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint32(p[0:4], rows)
	binary.LittleEndian.PutUint32(p[4:8], width)
	return p
}

func TestDecodeBatchTruncated(t *testing.T) {
	full := encodeBatch(fromRows([]storage.Row{{1, 2}, {3, 4}}))
	for _, cut := range []int{0, 4, 7, 8, 9, len(full) - 1} {
		if _, err := decodeBatch(full[:cut]); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("decode of %d/%d bytes: err = %v, want ErrTruncatedFrame", cut, len(full), err)
		}
	}
	// Oversized payload (header claims fewer rows than bytes present).
	if _, err := decodeBatch(append(full, 0)); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("oversized payload: err = %v, want ErrTruncatedFrame", err)
	}
	// Headers whose rows*width*8 wraps in int: 2^31 × 2^30 × 8 = 2^64 ≡ 0, so
	// "8 + product == len(p)" held for a bare header and decode went on to
	// make a 2^61-element slice — a panic from 13 hostile bytes on the wire.
	for _, h := range [][2]uint32{{1 << 31, 1 << 30}, {1 << 30, 1 << 31}, {1 << 31, 1 << 16}, {0, 1 << 31}, {1<<32 - 1, 1<<32 - 1}} {
		if _, err := decodeBatch(batchHeader(h[0], h[1])); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("header %d rows × %d columns, no values: err = %v, want ErrTruncatedFrame", h[0], h[1], err)
		}
	}
}

func TestFrameRoundTripAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	src := fromRows([]storage.Row{{11, 22}})
	if err := fw.writeBatch(frameLeft, src); err != nil {
		t.Fatal(err)
	}
	if err := fw.write(frameCredit, []byte{creditRight}); err != nil {
		t.Fatal(err)
	}
	if err := fw.write(frameEndLeft, nil); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	fr := newFrameReader(bytes.NewReader(full), MaxFrame)
	typ, got, err := fr.next()
	if err != nil || typ != frameLeft || !bytes.Equal(got, encodeBatch(src)) {
		t.Fatalf("batch frame: typ=%d err=%v", typ, err)
	}
	if typ, got, err = fr.next(); err != nil || typ != frameCredit || !bytes.Equal(got, []byte{creditRight}) {
		t.Fatalf("credit frame: typ=%d payload=%v err=%v", typ, got, err)
	}
	if typ, got, err = fr.next(); err != nil || typ != frameEndLeft || len(got) != 0 {
		t.Fatalf("end frame: typ=%d payload=%v err=%v", typ, got, err)
	}
	// Clean EOF at a frame boundary is io.EOF, not a truncation.
	if _, _, err := fr.next(); err != io.EOF {
		t.Errorf("end of stream: err = %v, want io.EOF", err)
	}
	// Any cut inside the frame is a truncation.
	for _, cut := range []int{1, 3, 4, 5, 28} {
		if _, _, err := newFrameReader(bytes.NewReader(full[:cut]), MaxFrame).next(); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("cut at %d: err = %v, want ErrTruncatedFrame", cut, err)
		}
	}
	// A hostile length prefix fails fast instead of allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameLeft}
	hr := newFrameReader(bytes.NewReader(huge), MaxFrame)
	if _, _, err := hr.next(); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("oversized frame: err = %v, want ErrTruncatedFrame", err)
	}
	if cap(hr.body) != 0 {
		t.Errorf("oversized frame grew the body buffer to %d bytes", cap(hr.body))
	}
}

// TestFrameWriterIssuesOneWritePerFrame: a frame reaches the connection as
// one Write — length, type and payload together — whatever its kind, so two
// frames can never interleave mid-frame and a credit costs one syscall.
func TestFrameWriterIssuesOneWritePerFrame(t *testing.T) {
	var cw countingWriter
	fw := &frameWriter{w: &cw}
	_ = fw.write(frameFragment, []byte(`{"method":"hash"}`))
	_ = fw.writeBatch(frameResult, fromRows(rowsOf(100, 7)))
	_ = fw.write(frameCredit, []byte{creditResult})
	_ = fw.write(frameEndResult, nil)
	if cw.writes != 4 {
		t.Fatalf("4 frames took %d Writes, want 4", cw.writes)
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestDecodedBatchSurvivesReaderReuse: next hands out its own buffer, so a
// decoded batch must own its values — it is unchanged after the reader has
// overwritten that buffer with three more frames.
func TestDecodedBatchSurvivesReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	first := fromRows(rowsOf(300, 11))
	for _, b := range []Batch{first, fromRows(rowsOf(300, 5)), fromRows(rowsOf(17, 3)), fromRows(rowsOf(300, 2))} {
		if err := fw.writeBatch(frameResult, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&buf, MaxFrame)
	_, payload, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	}
	if !sameBatch(got, first) {
		t.Fatal("decoded batch changed when the reader reused its buffer")
	}
}

// TestPartitionMixesAfterHash: the fastrange reduction must keep sequential
// and low-cardinality keys balanced for any partition count — the failure
// mode of reducing with `%` before mixing.
func TestPartitionMixesAfterHash(t *testing.T) {
	for _, parts := range []int{2, 3, 5, 7, 12, 16} {
		counts := make([]int, parts)
		const n = 100_000
		for v := int64(0); v < n; v++ {
			p := Partition(v, parts)
			if p < 0 || p >= parts {
				t.Fatalf("Partition(%d, %d) = %d out of range", v, parts, p)
			}
			counts[p]++
		}
		mean := float64(n) / float64(parts)
		for i, c := range counts {
			if ratio := float64(c) / mean; ratio > 1.05 || ratio < 0.95 {
				t.Errorf("parts=%d bucket %d holds %.2f× mean for sequential keys", parts, i, ratio)
			}
		}
	}
}

func TestWindowAcquireReleaseClose(t *testing.T) {
	w := newWindow(2)
	if !w.acquire() || !w.acquire() {
		t.Fatal("two credits should be available")
	}
	done := make(chan bool, 1)
	go func() { done <- w.acquire() }()
	w.release(1)
	if !<-done {
		t.Fatal("release should wake a blocked acquire")
	}
	go func() { done <- w.acquire() }()
	w.close()
	if <-done {
		t.Fatal("close should abort a blocked acquire")
	}
	if w.acquire() {
		t.Fatal("acquire after close must fail")
	}
}

func TestWorkerErrorUnwrap(t *testing.T) {
	err := &WorkerError{Addr: "127.0.0.1:9", Err: ErrWorkerDisconnected}
	if !errors.Is(err, ErrWorkerDisconnected) {
		t.Error("WorkerError must unwrap to its cause")
	}
	var we *WorkerError
	if !errors.As(error(err), &we) || we.Addr != "127.0.0.1:9" {
		t.Error("errors.As must recover the typed error with its address")
	}
}

// rowsOf builds deterministic two-column rows for transport tests.
func rowsOf(n int, keyMod int64) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{int64(i) % keyMod, int64(i)}
	}
	return rows
}

// fromRows transposes tuples into a dense batch; no tuples make a
// zero-width one.
func fromRows(in []storage.Row) Batch {
	if len(in) == 0 {
		return &vec.Vec{}
	}
	v := &vec.Vec{Cols: make([][]int64, len(in[0]))}
	for c := range v.Cols {
		v.Cols[c] = make([]int64, len(in))
		for r, row := range in {
			v.Cols[c][r] = row[c]
		}
	}
	return v
}

// streamOf yields rows in bs-row batches.
func streamOf(rows []storage.Row, bs int) Operator {
	return newShardOp(fromRows(rows), bs, nil)
}
