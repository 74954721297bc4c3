package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"paropt/internal/engine/exchange"
	"paropt/internal/placement"
	"paropt/internal/plan"
)

// pull runs an operator to exhaustion, closes it, and returns the rows it
// yielded and the error Next reported.
func pull(op Operator) (int, error) {
	defer op.Close()
	return pullCtx(context.Background(), op)
}

// TestWorkerSurvivesHostileFragments: a worker runs whatever Fragment comes
// off its socket. One that does not validate, or whose key positions no batch
// has, used to index out of range on the connection's goroutine and take the
// process down; it must come back as a typed *WorkerError, leave nothing
// staged, and leave the worker serving.
func TestWorkerSurvivesHostileFragments(t *testing.T) {
	e, est, cat := placedRig(t, 2_000, 1_000)
	ws := &exchange.WorkerStats{}
	lb, err := exchange.StartLoopbackWorkers([]*exchange.Worker{
		{Join: FragmentJoin, Store: placement.NewStore(cat, 42), Stats: ws},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	// One worker and no fallback: each fragment meets the worker once.
	cluster := lb.Cluster(exchange.ClusterConfig{})

	// R1.id = R2.fk over shipped scans: nothing but the descriptor crosses.
	good := func() exchange.Fragment {
		return exchange.Fragment{
			Method: "hash", LKeys: []int{0}, RKeys: []int{1}, Parts: 1,
			LeftScan:  &exchange.ScanSpec{Relation: "R1", HashCol: 0},
			RightScan: &exchange.ScanSpec{Relation: "R2", HashCol: 1},
		}
	}
	hostile := map[string]func(*exchange.Fragment){
		"no keys":                   func(f *exchange.Fragment) { f.LKeys, f.RKeys = nil, nil },
		"unequal key counts":        func(f *exchange.Fragment) { f.LKeys = []int{0, 1} },
		"negative key":              func(f *exchange.Fragment) { f.RKeys = []int{-1} },
		"negative hash column":      func(f *exchange.Fragment) { f.RightScan.HashCol = -3 },
		"build key past the width":  func(f *exchange.Fragment) { f.LKeys, f.RKeys = []int{7}, []int{9} },
		"probe key past the width":  func(f *exchange.Fragment) { f.LKeys = []int{7} },
		"merge keys past the width": func(f *exchange.Fragment) { f.Method, f.LKeys = "merge", []int{2} },
		"sym keys past the width":   func(f *exchange.Fragment) { f.Method, f.RKeys = "sym", []int{2} },
		// Both size allocations up front: a batch no allocation can satisfy
		// ended the process in the builder, which no recover catches.
		"batch size past the cap": func(f *exchange.Fragment) { f.BatchSize = 1 << 40 },
		"window past the cap":     func(f *exchange.Fragment) { f.Window = exchange.MaxWindow + 1 },
	}
	for name, corrupt := range hostile {
		frag := good()
		corrupt(&frag)
		op, err := cluster.Join(context.Background(), frag, nil, nil)
		if err != nil {
			t.Fatalf("%s: dispatch: %v", name, err)
		}
		_, err = pull(op)
		var we *exchange.WorkerError
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v (%T), want *exchange.WorkerError", name, err, err)
		}
	}
	// A build-side stream whose second batch is narrower than its first: the
	// join's buffer, sized by the first, would index past the second's
	// columns. No coordinator sends that, so it goes over a raw connection:
	// the worker must answer with an error frame naming ErrBatchWidth.
	if msg := streamWidthChange(t, lb.Addrs()[0]); !strings.Contains(msg, exchange.ErrBatchWidth.Error()) {
		t.Errorf("width-changing stream: error frame %q, want %q", msg, exchange.ErrBatchWidth)
	}
	if got := ws.FragmentsFailed.Load(); got != int64(len(hostile))+1 {
		t.Errorf("FragmentsFailed = %d, want %d", got, len(hostile)+1)
	}

	op, err := cluster.Join(context.Background(), good(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pull(op)
	if err != nil {
		t.Fatalf("good fragment after the hostile ones: %v", err)
	}
	want, err := e.Execute(join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin))
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 || rows != want.Len() {
		t.Errorf("good fragment returned %d rows, single-process join %d", rows, want.Len())
	}
	waitWorkerIdle(t, ws)
}

// streamWidthChange sends a worker a hash-join fragment whose left side is a
// shipped scan of R1 and whose right side is streamed as a two-column batch
// followed by a one-column batch, and returns the payload of the error frame
// that ends it.
func streamWidthChange(t *testing.T, addr string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// [u32 length][u8 type][payload], little-endian; a batch payload is
	// [u32 rows][u32 width] and then width runs of rows int64s.
	send := func(typ byte, payload []byte) {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
		if _, err := conn.Write(append(append(frame, typ), payload...)); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(rows, width uint32) []byte {
		p := binary.LittleEndian.AppendUint32(nil, rows)
		p = binary.LittleEndian.AppendUint32(p, width)
		return append(p, make([]byte, 8*rows*width)...)
	}
	const frameFragment, frameRight, frameEndRight, frameError = 1, 3, 5, 8
	frag, err := json.Marshal(exchange.Fragment{
		Method: "hash", LKeys: []int{0}, RKeys: []int{1}, Parts: 1, Wire: exchange.WireVersion,
		LeftScan: &exchange.ScanSpec{Relation: "R1", HashCol: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	send(frameFragment, frag)
	send(frameRight, batch(4, 2))
	send(frameRight, batch(4, 1))
	send(frameEndRight, nil)
	for {
		var head [5]byte
		if _, err := io.ReadFull(conn, head[:]); err != nil {
			t.Fatalf("connection ended before an error frame: %v", err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(head[:4])-1)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		if head[4] == frameError {
			return string(payload)
		}
	}
}

// waitWorkerIdle waits for a worker to have nothing staged and no fragment
// running: it closes its join after the coordinator has seen the fragment end.
func waitWorkerIdle(t *testing.T, ws *exchange.WorkerStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ws.StagedBytes.Load() != 0 || ws.ActiveFragments.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still holds %d staged bytes and %d active fragments", ws.StagedBytes.Load(), ws.ActiveFragments.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
