package exchange

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"paropt/internal/storage"
)

// skewProxy fronts a real worker and rewrites each fragment's wire version on
// the way in — the worker behind it sees a coordinator from another release.
// Everything else passes through untouched in both directions.
func skewProxy(t *testing.T, worker string, version int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(down net.Conn) {
		defer down.Close()
		up, err := net.Dial("tcp", worker)
		if err != nil {
			return
		}
		defer up.Close()
		fr := newFrameReader(down, MaxFrame)
		typ, payload, err := fr.next()
		var frag Fragment
		if err != nil || json.Unmarshal(payload, &frag) != nil {
			return
		}
		frag.Wire = version
		skewed, _ := json.Marshal(frag)
		if (&frameWriter{w: up}).write(typ, skewed) != nil {
			return
		}
		go func() {
			_, _ = io.Copy(up, fr.r) // the rest of the coordinator's stream, buffered bytes first
			_ = up.(*net.TCPConn).CloseWrite()
		}()
		_, _ = io.Copy(down, up)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestWorkerRejectsWireVersionMismatch: batch frames kept their type numbers
// when the payload went column-major, so only the fragment's version stands
// between a mixed-version fleet and a join over transposed data. A worker
// must refuse a foreign version before it reads a batch, with an error the
// coordinator can match; a shipped fragment then retries and falls back to
// the coordinator, a streamed one fails fast with a *WorkerError.
func TestWorkerRejectsWireVersionMismatch(t *testing.T) {
	lrows, rrows := rowsOf(1_000, 31), rowsOf(300, 31)
	store := &memStore{rels: map[string][]storage.Row{"L": lrows, "R": rrows}}
	var joined atomic.Bool
	never := func(frag Fragment, left, right Operator) (Operator, error) {
		joined.Store(true)
		return testHashJoin(frag, left, right)
	}
	ws := &WorkerStats{}
	lb, err := StartLoopbackWorkers([]*Worker{{Join: never, Store: store, Stats: ws}, {Join: never, Store: store, Stats: ws}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// A coordinator that predates the field (version 0, row-major batches),
	// over a raw connection: the refusal is a stats frame and an error frame
	// naming both versions, though a batch and both ends are already queued.
	conn, err := net.Dial("tcp", lb.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fw := &frameWriter{w: conn}
	_ = fw.write(frameFragment, []byte(`{"method":"hash","lkeys":[0],"rkeys":[0],"part":0,"parts":1,"batch_size":16}`))
	_ = fw.writeBatch(frameLeft, fromRows(lrows[:16]))
	_ = fw.write(frameEndLeft, nil)
	_ = fw.write(frameEndRight, nil)
	fr := newFrameReader(conn, MaxFrame)
	for refused := false; !refused; {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("stream ended before the refusal: %v", err)
		}
		switch typ {
		case frameResult, frameEndResult:
			t.Fatalf("worker answered a version-0 fragment with frame type %d", typ)
		case frameError:
			if err := remoteError(payload); !errors.Is(err, ErrWireVersion) {
				t.Fatalf("refusal = %v, want ErrWireVersion", err)
			}
			refused = true
		}
	}
	conn.Close()
	if joined.Load() {
		t.Fatal("worker ran the join of a fragment it had to refuse")
	}

	// Through the cluster, against the same worker made a release newer.
	skewed := skewProxy(t, lb.Addrs()[0], WireVersion+1)
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 2, BatchSize: 32}

	_, err = runJoin(t, NewCluster([]string{skewed}, ClusterConfig{}), frag, lrows, rrows)
	var we *WorkerError
	if !errors.As(err, &we) || !errors.Is(err, ErrWireVersion) || we.Addr != skewed {
		t.Fatalf("streamed join: err = %v, want a *WorkerError for %s wrapping ErrWireVersion", err, skewed)
	}

	want, err := runJoin(t, &Local{Fn: testHashJoin}, frag, lrows, rrows)
	if err != nil {
		t.Fatal(err)
	}
	// Two skewed workers, so the retry is a real re-dispatch to the second;
	// then one, which leaves nothing to re-dispatch to, so no retry counts.
	skewed2 := skewProxy(t, lb.Addrs()[1], WireVersion+1)
	for _, workers := range [][]string{{skewed, skewed2}, {skewed}} {
		cluster := NewCluster(workers, ClusterConfig{
			Owners: map[string][]string{"L": workers, "R": workers},
			Store:  store,
			Fn:     testHashJoin,
		})
		j, err := cluster.Join(context.Background(), shippedFrag(1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collect(j)
		if err != nil {
			t.Fatalf("%d workers: shipped join must fall back to the coordinator: %v", len(workers), err)
		}
		if !reflect.DeepEqual(multiset(want), multiset(got)) {
			t.Fatalf("%d workers: fallback rows differ (%d vs %d rows)", len(workers), len(got), len(want))
		}
		if cluster.Retries() != int64(len(workers)-1) || cluster.Fallbacks() != 1 || cluster.FallbackReasons()["worker_error"] != 1 {
			t.Errorf("%d workers: retries %d, fallbacks %d, reasons %v; want %d retries then one worker_error fallback",
				len(workers), cluster.Retries(), cluster.Fallbacks(), cluster.FallbackReasons(), len(workers)-1)
		}
	}
	if joined.Load() {
		t.Fatal("worker ran the join of a fragment it had to refuse")
	}
	if got := ws.FragmentsFailed.Load(); got < 3 {
		t.Errorf("FragmentsFailed = %d, want every refused fragment counted (≥3)", got)
	}
}

// TestWorkerSurvivesBatchAfterEnd: a batch frame behind its stream's end frame
// is a protocol violation the reader must end the fragment on — delivering it
// would be a send on the channel the end frame closed, a panic on the
// connection's goroutine that takes the worker process down.
func TestWorkerSurvivesBatchAfterEnd(t *testing.T) {
	lb, err := StartLoopback(1, testHashJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	conn, err := net.Dial("tcp", lb.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fw := &frameWriter{w: conn}
	_ = fw.write(frameFragment, []byte(`{"method":"hash","lkeys":[0],"rkeys":[0],"part":0,"parts":1,"batch_size":16,"wire":1}`))
	_ = fw.write(frameEndRight, nil)
	_ = fw.writeBatch(frameRight, fromRows(rowsOf(16, 5)))
	fr := newFrameReader(conn, MaxFrame)
	for {
		typ, _, err := fr.next()
		if err != nil {
			t.Fatalf("stream ended without the fragment's error frame: %v", err)
		}
		if typ == frameEndResult {
			t.Fatal("worker finished a fragment whose input broke the protocol")
		}
		if typ == frameError {
			break
		}
	}
	// The worker is still there for the next fragment.
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 1, BatchSize: 16}
	if rows, err := runJoin(t, lb.Cluster(ClusterConfig{}), frag, rowsOf(100, 7), rowsOf(100, 7)); err != nil || len(rows) == 0 {
		t.Fatalf("join after the violation: %d rows, err %v", len(rows), err)
	}
}
