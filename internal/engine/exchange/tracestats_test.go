package exchange

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterCollectsFragmentStats: a streamed cluster join must come back
// with one FragmentStats per partition, carrying the propagated trace ID,
// the worker's identity and measurements, and a span tree whose stable names
// the coordinator-side trace merge relies on.
func TestClusterCollectsFragmentStats(t *testing.T) {
	lb, err := StartLoopbackWorkers([]*Worker{
		{Join: testHashJoin, ID: "w0"},
		{Join: testHashJoin, ID: "w1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cluster := lb.Cluster(ClusterConfig{Window: 4, TraceID: "trace-42"})
	frag := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{0}, Parts: 4, BatchSize: 32}
	rows, err := runJoin(t, cluster, frag, rowsOf(2_000, 97), rowsOf(500, 97))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("join produced no rows; fixture is broken")
	}

	j, err := cluster.Join(context.Background(), frag, streamOf(rowsOf(10, 3), 32), streamOf(rowsOf(10, 3), 32))
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := j.(StatsReporter)
	if !ok {
		t.Fatalf("cluster join %T does not implement StatsReporter", j)
	}
	if _, err := collect(j); err != nil {
		t.Fatal(err)
	}
	fstats := sr.FragmentStats()
	if len(fstats) != frag.Parts {
		t.Fatalf("FragmentStats = %d entries, want %d", len(fstats), frag.Parts)
	}
	var totalRows int64
	for _, fs := range fstats {
		if fs.TraceID != "trace-42" {
			t.Errorf("part %d: TraceID = %q, want trace-42", fs.Part, fs.TraceID)
		}
		if fs.Worker != "w0" && fs.Worker != "w1" {
			t.Errorf("part %d: Worker = %q, want w0 or w1", fs.Part, fs.Worker)
		}
		if fs.Addr == "" {
			t.Errorf("part %d: Addr not stamped on receipt", fs.Part)
		}
		if fs.Dispatched.IsZero() {
			t.Errorf("part %d: Dispatched not stamped", fs.Part)
		}
		if fs.Span == nil || fs.Span.Name != "fragment" {
			t.Fatalf("part %d: missing fragment root span: %+v", fs.Part, fs.Span)
		}
		if fs.Span.EndNanos <= 0 {
			t.Errorf("part %d: root span never ended", fs.Part)
		}
		var join *RemoteSpan
		for _, c := range fs.Span.Children {
			if c.Name == "join" {
				join = c
			}
		}
		if join == nil {
			t.Fatalf("part %d: no join child span", fs.Part)
		}
		if fs.Rows > 0 {
			if fs.FirstNanos <= 0 || fs.LastNanos < fs.FirstNanos {
				t.Errorf("part %d: (tf, tl) = (%d, %d) out of order", fs.Part, fs.FirstNanos, fs.LastNanos)
			}
			if join.FirstNanos != fs.FirstNanos {
				t.Errorf("part %d: join span tf %d != fragment tf %d", fs.Part, join.FirstNanos, fs.FirstNanos)
			}
		}
		totalRows += fs.Rows
	}
	// 10 rows per side over 3 keys: per-key cross product = 4+3·9... just
	// compare against what the coordinator actually received.
	got, err := runJoin(t, cluster, frag, rowsOf(10, 3), rowsOf(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if wantRows := int64(len(got)); totalRows != wantRows {
		t.Errorf("workers reported %d rows, coordinator received %d", totalRows, wantRows)
	}
}

// TestFragmentTraceIDRoundTrip pins the wire form: the trace ID survives the
// fragment codec, and a fragment written by a coordinator that predates the
// field (no trace_id key) decodes with an empty TraceID instead of failing.
func TestFragmentTraceIDRoundTrip(t *testing.T) {
	in := Fragment{Method: "hash", LKeys: []int{0}, RKeys: []int{1}, Parts: 2, TraceID: "abc-1"}
	payload, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Fragment
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "abc-1" {
		t.Errorf("TraceID = %q after round trip, want abc-1", out.TraceID)
	}
	var old Fragment
	if err := json.Unmarshal([]byte(`{"method":"hash","parts":2,"batch_size":16}`), &old); err != nil {
		t.Fatalf("old-coordinator fragment failed to decode: %v", err)
	}
	if old.TraceID != "" {
		t.Errorf("old fragment decoded with TraceID %q, want empty", old.TraceID)
	}
}

// TestWorkerServesOldCoordinatorFrames drives a worker over a raw connection
// the way a pre-observability coordinator would: a fragment frame without
// trace fields (but at the worker's wire version — a different batch layout
// is refused, see TestWorkerRejectsWireVersionMismatch), immediate
// end-of-input frames, no stats awareness. The
// worker must execute the (empty) join, ship a stats frame the old
// coordinator would skip, and still terminate the stream with frameEndResult.
func TestWorkerServesOldCoordinatorFrames(t *testing.T) {
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
	frag := []byte(`{"method":"hash","lkeys":[0],"rkeys":[0],"part":0,"parts":1,"batch_size":16,"wire":1}`)
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{{frameFragment, frag}, {frameEndLeft, nil}, {frameEndRight, nil}} {
		if err := (&frameWriter{w: conn}).write(f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	sawStats := false
	fr := newFrameReader(conn, MaxFrame)
	for {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("stream ended before frameEndResult: %v", err)
		}
		switch typ {
		case frameStats:
			sawStats = true
			var fs FragmentStats
			if err := json.Unmarshal(payload, &fs); err != nil {
				t.Fatalf("bad stats payload: %v", err)
			}
			if fs.TraceID != "" {
				t.Errorf("stats TraceID = %q for a fragment without one", fs.TraceID)
			}
		case frameError:
			t.Fatalf("worker failed the fragment: %s", payload)
		case frameEndResult:
			if !sawStats {
				t.Error("no stats frame before frameEndResult")
			}
			return
		}
	}
}

// TestWindowStallMonotonic: the stall counter only ever grows, is safe under
// concurrent acquire/release, and actually accumulates when the window runs
// dry — the property the per-link stall metric depends on.
func TestWindowStallMonotonic(t *testing.T) {
	w := newWindow(1)
	const rounds = 200
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sampler: stallNanos must never decrease
		defer wg.Done()
		var last int64
		for !stop.Load() {
			if s := w.stallNanos(); s < last {
				t.Errorf("stall went backwards: %d -> %d", last, s)
				return
			} else {
				last = s
			}
		}
	}()
	wg.Add(1)
	go func() { // releaser: trickle credits so the acquirer keeps blocking
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			time.Sleep(100 * time.Microsecond)
			w.release(1)
		}
	}()
	for i := 0; i < rounds+1; i++ { // +1: the initial credit from newWindow(1)
		if !w.acquire() {
			t.Fatal("window closed unexpectedly")
		}
	}
	stop.Store(true)
	wg.Wait()
	if w.stallNanos() <= 0 {
		t.Error("acquirer outpaced a trickling releaser but recorded no stall")
	}
	if w.avail != 0 { // every goroutine touching w has exited
		t.Errorf("%d credits left after balanced acquire/release, want 0", w.avail)
	}
}
