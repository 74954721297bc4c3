package exchange

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
)

var errStoreMissing = errors.New("exchange: fragment ships scans but worker has no store")

// Worker serves join fragments over TCP: per connection it reads a Fragment,
// demultiplexes left/right input batches into channels, pulls the operator
// Join builds over them, and streams its batches back — all under
// per-direction credit windows so neither side buffers unboundedly. Each fragment is measured (span tree,
// rows, first/last-output offsets, result-window stall) and the measurements
// ship back in a frameStats frame before the final result frame.
type Worker struct {
	// Join builds one fragment's join; required.
	Join JoinFunc
	// Store sources shipped leaf scans (fragments with LeftScan/RightScan).
	// Nil rejects shipped fragments with a frame error, which the
	// coordinator turns into a retry elsewhere or a local fallback.
	Store Store
	// ID names this worker in the FragmentStats it ships back (usually its
	// advertised address). Empty is fine — the coordinator stamps the link
	// address on receipt anyway.
	ID string
	// Stats, when set, accumulates process-wide counters across fragments
	// (exported by cmd/paroptw on /metrics and /healthz). Nil disables.
	Stats *WorkerStats
}

// Serve accepts fragment connections until the listener closes, handling
// each on its own goroutine. It returns the listener's Accept error.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go w.handle(conn)
	}
}

// handle runs one fragment connection to completion on two goroutines: this
// one runs the fragment and writes its results, a reader demultiplexes the
// connection. It is the wire half of a fragment: the frames in and out, the
// result window and the closing stats/end/error frames; run is the rest.
//
// Deadlock-freedom: the reader delivers into channels whose buffer equals the
// coordinator's credit window — the one the fragment carries — and a credit is
// granted only when the join's Next takes a batch out of one (recvOp) — so at
// most Window un-credited batches exist per direction and the reader never
// blocks on delivery. It therefore always
// stays responsive to result credits, whatever order the join pulls its
// inputs in, and a join that stops pulling simply stops granting.
func (w *Worker) handle(conn net.Conn) {
	defer conn.Close()
	// The connection's one frame writer — result batches, credits and the
	// closing stats/end frames all go through it — and its one frame reader,
	// whose buffers go back to their pools when the fragment ends.
	fw := &frameWriter{w: conn}
	defer fw.release()
	fr := newFrameReader(conn, MaxFrame)
	defer fr.release()

	typ, payload, err := fr.next()
	if err != nil || typ != frameFragment {
		return
	}
	var frag Fragment
	if err := json.Unmarshal(payload, &frag); err != nil {
		_ = fw.write(frameError, []byte("exchange: bad fragment: "+err.Error()))
		return
	}

	r := w.start(&frag)
	win := frag.Window
	if win == 0 {
		win = DefaultWindow
	}
	resWin := newWindow(win)
	r.ws.ActiveFragments.Add(1)
	defer r.ws.ActiveFragments.Add(-1)
	// finish seals the stats and ships them ahead of the final frame. The
	// stats frame is always sent — on errors too — so the coordinator can
	// annotate failed attempts; old coordinators skip the unknown frame type.
	finish := func(failErr error) {
		fs, ws := r.fs, r.ws
		fs.Span.EndNanos = r.since()
		fs.ResultStallNanos = resWin.stallNanos()
		if failErr != nil {
			fs.Error = failErr.Error()
			fs.Span.Attrs["error"] = failErr.Error()
			ws.FragmentsFailed.Add(1)
		} else {
			ws.FragmentsServed.Add(1)
		}
		ws.RowsEmitted.Add(fs.Rows)
		ws.BatchesEmitted.Add(fs.Batches)
		ws.ResultStallNanos.Add(fs.ResultStallNanos)
		if sp, err := json.Marshal(fs); err == nil {
			_ = fw.write(frameStats, sp)
		}
		if failErr != nil {
			_ = fw.write(frameError, []byte(failErr.Error()))
		} else {
			_ = fw.write(frameEndResult, nil)
		}
	}

	// A coordinator that lays batches out differently must not get as far as
	// a batch, nor a fragment that does not validate as far as the join. The
	// refusal is drained behind: closing on the input frames a streaming
	// coordinator already sent would reset the connection and take the error
	// frame with it.
	refusal := frag.Validate()
	if frag.Wire != WireVersion {
		refusal = fmt.Errorf("%w: fragment speaks %d, worker %d", ErrWireVersion, frag.Wire, WireVersion)
	}
	if refusal != nil {
		finish(refusal)
		for err == nil {
			_, _, err = fr.next()
		}
		return
	}

	// The fragment's context: the reader cancels it when the coordinator
	// cancels or goes away, so the join unwinds at its next checkpoint instead
	// of running a doomed build to its end.
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	left := make(chan Batch, win)
	right := make(chan Batch, win)
	credit := func(dir byte) func() {
		return func() { _ = fw.write(frameCredit, []byte{dir}) }
	}

	// The reader runs before the fragment does: a fragment that fails before
	// its join — a shipped scan the store cannot serve — still has its
	// streamed side's input to drain, and closing on it would reset the
	// connection and take the error frame with it.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		// A stream's width is whatever its first batch has: the join sizes
		// its buffers by it.
		streams := [2]struct {
			ch    chan Batch
			open  bool
			width int
		}{{left, true, -1}, {right, true, -1}}
		// Whatever ends the reader ends the streams it feeds and the result
		// window. The cancel comes first, so the join reads the closes as that
		// failure and not as exhaustion; after a finished join it is a no-op.
		defer func() {
			stop(ErrWorkerDisconnected)
			for _, s := range streams {
				if s.open {
					close(s.ch)
				}
			}
			resWin.close()
		}()
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case frameLeft, frameRight:
				b, err := decodeBatch(payload)
				if err != nil {
					return
				}
				s := &streams[typ-frameLeft]
				if !s.open {
					return // a batch after its stream's end frame
				}
				if s.width < 0 {
					s.width = b.Width()
				} else if b.Width() != s.width {
					// Fail the fragment but keep reading: closing on input a
					// streaming coordinator still sends would reset the
					// connection and take the error frame with it.
					stop(fmt.Errorf("%w: %d columns after %d", ErrBatchWidth, b.Width(), s.width))
					continue
				}
				// Within its window a batch always finds room; once the
				// fragment is over, batches still in flight are dropped.
				select {
				case s.ch <- b:
				case <-ctx.Done():
				}
			case frameEndLeft, frameEndRight:
				if s := &streams[typ-frameEndLeft]; s.open {
					close(s.ch)
					s.open = false
				}
			case frameCredit:
				if len(payload) == 1 && payload[0] == creditResult {
					resWin.release(1)
				}
			case frameCancel:
				// Coordinator abandoned the fragment: the join unwinds on its
				// context, its shardOps free the staged partitions, and the
				// final error frame tells the coordinator we are done.
				r.ws.Cancelled.Add(1)
				stop(ErrJoinCancelled)
				return
			}
		}
	}()

	finish(r.run(ctx, &recvOp{ch: left, taken: credit(creditLeft)}, &recvOp{ch: right, taken: credit(creditRight)},
		func(b Batch) error {
			if !resWin.acquire() {
				return ErrWorkerDisconnected
			}
			err := fw.writeBatch(frameResult, b)
			b.Release() // the frame holds a copy
			return err
		}))
	stop(nil) // the reader drops what a streaming coordinator still sends
	// Wait for the coordinator to close its side before closing ours: a
	// result credit can still be in flight for the last batch, and closing
	// with unread data pending makes TCP reset the connection — discarding
	// the final result/end/error frames from the coordinator's receive
	// buffer mid-frame. The coordinator always closes once it has read the
	// end (or failed), which surfaces here as the reader's EOF.
	<-readerDone
}

// fragmentRun is one run of a fragment and what it measures — at a worker,
// or at the coordinator when no worker could run it.
type fragmentRun struct {
	w    *Worker
	frag *Fragment
	ws   *WorkerStats
	// fs is the run's stats; its Span is the root "fragment" span.
	fs *FragmentStats
	// t0 is the fragment's receipt. Every offset in fs is from t0: the
	// coordinator re-anchors the tree at its dispatch time, so the two
	// processes never need to agree on a wall clock.
	t0 int64
}

// start opens a run of frag at w.
func (w *Worker) start(frag *Fragment) *fragmentRun {
	ws := w.Stats
	if ws == nil {
		ws = &WorkerStats{} // nobody reads it; saves a nil check per counter
	}
	return &fragmentRun{w: w, frag: frag, ws: ws, t0: nowNanos(), fs: &FragmentStats{
		TraceID: frag.TraceID,
		Worker:  w.ID,
		Part:    frag.Part,
		Parts:   frag.Parts,
		Span: &RemoteSpan{Name: "fragment", Attrs: map[string]string{
			"method": frag.Method,
			"worker": w.ID,
		}},
	}}
}

// since is the offset of now from the run's start.
func (r *fragmentRun) since() int64 { return nowNanos() - r.t0 }

// run executes the fragment once its streamed inputs are operators: it
// sources the shipped sides from the worker's store, builds the worker's join
// over both sides, pulls it and hands every result batch to emit, filling the
// run's stats and span tree as it goes. left and right are the streamed
// inputs; a shipped side's is not read. run closes whatever it pulls. It
// returns what ended the run: nil, a store failure, the join's error or
// emit's.
//
// Shipped sides are sourced before the join runs, so a store failure ends the
// run with no results emitted — the coordinator can re-dispatch the fragment
// cleanly. A shipped side is pulled as windows of the scanned shard — no wire
// traffic, no credits, no copy. Its bytes are metered on the StagedBytes gauge
// until the shardOp is exhausted or closed, so the gauge reaches zero again on
// every exit path, error paths included.
func (r *fragmentRun) run(ctx context.Context, left, right Operator, emit func(Batch) error) error {
	frag, root, ws := r.frag, r.fs.Span, r.ws
	scan := func(name string, spec *ScanSpec) (Operator, error) {
		sp := root.child(name, r.since())
		v, err := r.w.Store.ScanPartition(*spec, frag.Part, frag.Parts)
		sp.EndNanos = r.since()
		sp.Attrs = map[string]string{
			"relation": spec.Relation,
			"rows":     strconv.Itoa(v.Len()),
		}
		if err != nil {
			return nil, err
		}
		staged := v.Bytes()
		ws.ShippedScans.Add(1)
		ws.StagedBytes.Add(staged)
		return newShardOp(v, frag.BatchSize, func() { ws.StagedBytes.Add(-staged) }), nil
	}
	if frag.LeftScan != nil || frag.RightScan != nil {
		if r.w.Store == nil {
			closeInputs(left, right)
			return errStoreMissing
		}
		var err error
		if frag.LeftScan != nil {
			left, err = scan("scan-left", frag.LeftScan)
		}
		if err == nil && frag.RightScan != nil {
			right, err = scan("scan-right", frag.RightScan)
		}
		if err != nil {
			// Without this a fragment whose second scan fails fast pins the
			// first side's partition bytes on the gauge until process exit.
			closeInputs(left, right)
			return fmt.Errorf("exchange: shipped scan: %w", err)
		}
	}

	joinSpan := root.child("join", r.since())
	op, err := r.w.Join(*frag, left, right)
	if err != nil {
		closeInputs(left, right)
	} else {
		for err == nil {
			var b Batch
			if b, err = op.Next(ctx); b == nil {
				break
			}
			rows := b.Len()
			if err = emit(b); err == nil {
				r.fs.emitted(joinSpan, r.since(), rows)
			}
		}
		op.Close()
	}
	joinSpan.EndNanos = r.since()
	joinSpan.Attrs = map[string]string{
		"method": frag.Method,
		"rows":   strconv.FormatInt(r.fs.Rows, 10),
	}
	if r.fs.LastNanos == 0 {
		r.fs.LastNanos = joinSpan.EndNanos
	}
	return err
}
