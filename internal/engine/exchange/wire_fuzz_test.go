package exchange

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// checkDecoded holds a successfully decoded batch to what the payload can
// justify: dense, no more slab than the payload had values, no more columns
// than the cap, and — the codec being canonical for batches with columns —
// re-encoding to the very bytes that came in.
func checkDecoded(t *testing.T, payload []byte, b Batch) {
	t.Helper()
	if b.Sel != nil {
		t.Fatal("decoded batch carries a selection")
	}
	if b.Width() > maxBatchWidth {
		t.Fatalf("decoded %d columns, cap %d", b.Width(), maxBatchWidth)
	}
	vals := 0
	for _, col := range b.Cols {
		if len(col) != b.Len() {
			t.Fatalf("ragged columns: %d vs %d rows", len(col), b.Len())
		}
		vals += cap(col)
	}
	if 8*vals > len(payload) {
		t.Fatalf("decoded slab of %d values from a %d-byte payload", vals, len(payload))
	}
	if b.Width() > 0 && !bytes.Equal(encodeBatch(b), payload) {
		t.Fatal("decode → encode changed the payload")
	}
}

// FuzzDecodeBatch: whatever the bytes, decodeBatch returns a batch the
// payload accounts for or ErrTruncatedFrame — it never panics and never
// sizes an allocation from a header the payload does not back. A batch
// decodes the same after its chunks went round the pool: the payload is
// decoded, released, the pool's chunks are dirtied by a released full-sized
// batch of other values, and the payload is decoded again — so a value the
// decoder left unwritten in a recycled chunk shows as a stale one.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(batchHeader(0, 0))
	f.Add(batchHeader(0, 3))
	f.Add(batchHeader(7, 0))
	f.Add(batchHeader(1<<31, 1<<30)) // rows*width*8 wraps to 0 in int
	f.Add(batchHeader(1<<29, 1<<3))  // rows*width*8 wraps to 0 in uint32
	f.Add(batchHeader(0, 1<<32-1))
	f.Add(append(batchHeader(1, 1), 1, 2, 3))
	f.Add(encodeBatch(fromRows(rowsOf(5, 3))))
	f.Add(encodeBatch(fromRows(rowsOf(40, 7)).FilterEq(0, 2)))
	f.Add(append(encodeBatch(fromRows([]storage.Row{{-1, 1 << 62}})), 0))
	f.Add(encodeBatch(fromRows(rowsOf(vec.DefaultBatchRows, 13))))
	f.Add(encodeBatch(fromRows(rowsOf(vec.DefaultBatchRows/2+1, 5))))
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := decodeBatch(p)
		if err != nil {
			if !errors.Is(err, ErrTruncatedFrame) || b != nil {
				t.Fatalf("decode: batch %v, err %v; want nil and ErrTruncatedFrame", b, err)
			}
			return
		}
		checkDecoded(t, p, b)
		want := b.AppendRows(nil)
		b.Release()
		dirty := vec.Make(min(b.Width(), 64), vec.DefaultBatchRows)
		for _, col := range dirty.Cols {
			for i := range col {
				col[i] = -7
			}
		}
		dirty.Release()
		again, err := decodeBatch(p)
		if err != nil {
			t.Fatalf("second decode: %v", err)
		}
		checkDecoded(t, p, again)
		if got := again.AppendRows(nil); !reflect.DeepEqual(got, want) {
			t.Fatal("a batch decoded into recycled chunks differs from its fresh decode")
		}
		again.Release()
	})
}

// FuzzFrameReader drives arbitrary bytes through a connection's whole receive
// path — frameReader.next, then decodeBatch on the batch-typed frames — the
// way a worker or the coordinator meets them. The stream ends in io.EOF (at
// a frame boundary) or ErrTruncatedFrame, the body buffer never outgrows
// MaxFrame, and nothing panics.
func FuzzFrameReader(f *testing.F) {
	const maxFrame = 1 << 12
	frames := func(write func(fw *frameWriter)) []byte {
		var buf bytes.Buffer
		write(&frameWriter{w: &buf})
		return buf.Bytes()
	}
	good := frames(func(fw *frameWriter) {
		_ = fw.write(frameFragment, []byte(`{"method":"hash","wire":1}`))
		_ = fw.writeBatch(frameLeft, fromRows(rowsOf(9, 4)))
		_ = fw.write(frameCredit, []byte{creditLeft})
		_ = fw.writeBatch(frameResult, fromRows(rowsOf(30, 4)).FilterEq(0, 1))
		_ = fw.write(frameEndLeft, nil)
	})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{0, 0, 0, 0})                  // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2})   // length past any MaxFrame
	f.Add([]byte{0x01, 0x10, 0, 0, frameLeft}) // length just past this MaxFrame
	f.Add([]byte{9, 0, 0, 0, frameLeft, 1, 2}) // body cut short
	f.Add(frames(func(fw *frameWriter) { _ = fw.write(frameRight, batchHeader(1<<31, 1<<30)) }))
	f.Add(frames(func(fw *frameWriter) { _ = fw.write(frameResult, batchHeader(0, 1<<20)) }))
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream), maxFrame)
		for read := 0; ; {
			typ, payload, err := fr.next()
			if cap(fr.body) > maxFrame {
				t.Fatalf("body buffer grew to %d bytes, MaxFrame %d", cap(fr.body), maxFrame)
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncatedFrame) {
					t.Fatalf("next: %v; want io.EOF or ErrTruncatedFrame", err)
				}
				if err == io.EOF && read != len(stream) {
					t.Fatalf("clean EOF after %d of %d bytes", read, len(stream))
				}
				return
			}
			read += 5 + len(payload)
			if typ != frameLeft && typ != frameRight && typ != frameResult {
				continue
			}
			if b, err := decodeBatch(payload); err == nil {
				checkDecoded(t, payload, b)
			} else if !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("decode: %v; want ErrTruncatedFrame", err)
			}
		}
	})
}

// FuzzFragment drives arbitrary bytes the way Worker.handle meets a fragment
// frame: json.Unmarshal, then Validate. Nothing panics, and whatever
// validates keeps the properties the join indexes by and survives the wire
// form — marshalled and read back it is the same fragment and still valid.
func FuzzFragment(f *testing.F) {
	// The two fragments that crashed an unvalidating worker: no keys at all,
	// and keys past any batch's width (those validate — only the join's first
	// batch can refute them).
	f.Add([]byte(`{"method":"hash","parts":1}`))
	f.Add([]byte(`{"method":"hash","lkeys":[7],"rkeys":[9],"parts":1}`))
	f.Add([]byte(`{"method":"merge","lkeys":[0,2],"rkeys":[1,0],"part":1,"parts":2,"batch_size":512,"wire":1}`))
	f.Add([]byte(`{"method":"sym","lkeys":[0],"rkeys":[0],"parts":1,"left_scan":{"relation":"R","hash_col":-1}}`))
	f.Add([]byte(`{"lkeys":[0],"rkeys":[-1],"parts":1}`))
	f.Add([]byte(`{"lkeys":[0],"rkeys":[0],"part":3,"parts":2}`))
	f.Add([]byte(`{"lkeys":[0],"rkeys":[0],"parts":1,"batch_size":-4}`))
	// A batch size no allocation can satisfy ended a worker process in the
	// builder's reserve; a window sizes the worker's channels the same way.
	f.Add([]byte(`{"method":"hash","lkeys":[0],"rkeys":[1],"parts":1,"batch_size":1099511627776}`))
	f.Add([]byte(`{"method":"hash","lkeys":[0],"rkeys":[1],"parts":1,"window":1025}`))
	f.Add([]byte(`{"method":"hash","lkeys":[0],"rkeys":[1],"parts":1,"window":-1}`))
	f.Add([]byte(`{"lkeys":null,"rkeys":{}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, p []byte) {
		var frag Fragment
		if json.Unmarshal(p, &frag) != nil || frag.Validate() != nil {
			return
		}
		if len(frag.LKeys) == 0 || len(frag.LKeys) != len(frag.RKeys) || frag.Part < 0 || frag.Part >= frag.Parts ||
			frag.BatchSize < 0 || frag.BatchSize > MaxBatchRows || frag.Window < 0 || frag.Window > MaxWindow {
			t.Fatalf("validated %+v", frag)
		}
		for i := range frag.LKeys {
			if frag.LKeys[i] < 0 || frag.RKeys[i] < 0 {
				t.Fatalf("validated negative key positions %v, %v", frag.LKeys, frag.RKeys)
			}
		}
		wire, err := json.Marshal(frag)
		if err != nil {
			t.Fatalf("marshal of a validated fragment: %v", err)
		}
		var back Fragment
		if err := json.Unmarshal(wire, &back); err != nil || back.Validate() != nil {
			t.Fatalf("validated fragment did not survive its wire form %s: %v", wire, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(wire, again) {
			t.Fatalf("round trip changed the fragment: %s vs %s", wire, again)
		}
	})
}
