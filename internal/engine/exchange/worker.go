package exchange

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"

	"paropt/internal/vec"
)

var errStoreMissing = errors.New("exchange: fragment ships scans but worker has no store")

// Worker serves join fragments over TCP: per connection it reads a Fragment,
// demultiplexes left/right input batches into channels, runs Join over them,
// and streams result batches back — all under per-direction credit windows
// so neither side buffers unboundedly. Each fragment is measured (span tree,
// rows, first/last-output offsets, result-window stall) and the measurements
// ship back in a frameStats frame before the final result frame.
type Worker struct {
	// Join runs one fragment; required.
	Join JoinFunc
	// Store sources shipped leaf scans (fragments with LeftScan/RightScan).
	// Nil rejects shipped fragments with a frame error, which the
	// coordinator turns into a retry elsewhere or a local fallback.
	Store Store
	// Window is the per-direction credit window; 0 means DefaultWindow.
	Window int
	// MaxFrame bounds incoming frames; 0 means DefaultMaxFrame.
	MaxFrame uint32
	// ID names this worker in the FragmentStats it ships back (usually its
	// advertised address). Empty is fine — the coordinator stamps the link
	// address on receipt anyway.
	ID string
	// Stats, when set, accumulates process-wide counters across fragments
	// (exported by cmd/paroptw on /metrics and /healthz). Nil disables.
	Stats *WorkerStats
}

func (w *Worker) window() int {
	if w.Window > 0 {
		return w.Window
	}
	return DefaultWindow
}

func (w *Worker) maxFrame() uint32 {
	if w.MaxFrame > 0 {
		return w.MaxFrame
	}
	return DefaultMaxFrame
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

// handle runs one fragment connection to completion.
//
// Deadlock-freedom: the reader goroutine delivers into channels whose buffer
// equals the credit window, and credits are granted only after the join
// takes a batch — so at most Window un-credited batches exist per direction
// and the reader never blocks on delivery. It therefore always stays
// responsive to result credits, whatever order the join consumes its inputs.
func (w *Worker) handle(conn net.Conn) {
	defer conn.Close()
	win := w.window()
	// The connection's one frame writer — result batches, credits and the
	// closing stats/end frames all go through it — and its one frame reader.
	fw := &frameWriter{w: conn}
	fr := newFrameReader(conn, w.maxFrame())

	typ, payload, err := fr.next()
	if err != nil || typ != frameFragment {
		return
	}
	var frag Fragment
	if err := json.Unmarshal(payload, &frag); err != nil {
		_ = fw.write(frameError, []byte("exchange: bad fragment: "+err.Error()))
		return
	}

	// Every timestamp below is an offset from t0 (fragment receipt): the
	// coordinator re-anchors the whole tree at its dispatch time, so the two
	// processes never need to agree on a wall clock.
	t0 := nowNanos()
	since := func() int64 { return nowNanos() - t0 }
	resWin := newWindow(win)
	if w.Stats != nil {
		w.Stats.ActiveFragments.Add(1)
		defer w.Stats.ActiveFragments.Add(-1)
	}
	root := &RemoteSpan{Name: "fragment", Attrs: map[string]string{
		"method": frag.Method,
		"worker": w.ID,
	}}
	fs := &FragmentStats{
		TraceID: frag.TraceID,
		Worker:  w.ID,
		Part:    frag.Part,
		Parts:   frag.Parts,
		Span:    root,
	}
	// finish seals the stats and ships them ahead of the final frame. The
	// stats frame is always sent — on errors too — so the coordinator can
	// annotate failed attempts; old coordinators skip the unknown frame type.
	finish := func(failErr error) {
		root.EndNanos = since()
		fs.ResultStallNanos = resWin.stallNanos()
		if failErr != nil {
			fs.Error = failErr.Error()
			root.Attrs["error"] = failErr.Error()
		}
		if w.Stats != nil {
			if failErr != nil {
				w.Stats.FragmentsFailed.Add(1)
			} else {
				w.Stats.FragmentsServed.Add(1)
			}
			w.Stats.RowsEmitted.Add(fs.Rows)
			w.Stats.BatchesEmitted.Add(fs.Batches)
			w.Stats.ResultStallNanos.Add(fs.ResultStallNanos)
		}
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
	// a batch. The refusal is drained behind: closing on the input frames a
	// streaming coordinator already sent would reset the connection and take
	// the error frame with it.
	if frag.Wire != WireVersion {
		finish(fmt.Errorf("%w: fragment speaks %d, worker %d", ErrWireVersion, frag.Wire, WireVersion))
		for err == nil {
			_, _, err = fr.next()
		}
		return
	}

	// Shipped sides are sourced from the local store before the join runs,
	// so a store failure surfaces as a frame error with no results emitted —
	// the coordinator can re-dispatch the fragment cleanly. Staged partition
	// bytes are metered on the StagedBytes gauge and must reach zero again on
	// every exit path, error paths included.
	var lvec, rvec *vec.Vec
	addStaged := func(n int64) {
		if w.Stats != nil && n != 0 {
			w.Stats.StagedBytes.Add(n)
		}
	}
	if frag.LeftScan != nil || frag.RightScan != nil {
		if w.Store == nil {
			finish(errStoreMissing)
			return
		}
		scan := func(name string, spec *ScanSpec) (*vec.Vec, error) {
			if spec == nil {
				return nil, nil
			}
			sp := root.child(name, since())
			v, err := w.Store.ScanPartition(*spec, frag.Part, frag.Parts)
			sp.EndNanos = since()
			sp.Attrs = map[string]string{
				"relation": spec.Relation,
				"rows":     strconv.Itoa(v.Len()),
			}
			if err != nil {
				return nil, err
			}
			if w.Stats != nil {
				w.Stats.ShippedScans.Add(1)
			}
			addStaged(v.Bytes())
			return v, nil
		}
		var err error
		if lvec, err = scan("scan-left", frag.LeftScan); err == nil {
			rvec, err = scan("scan-right", frag.RightScan)
		}
		if err != nil {
			// Free whatever was staged before the failure: without this a
			// fragment whose second scan fails fast pins the first side's
			// partition bytes on the gauge until process exit.
			if lvec != nil {
				addStaged(-lvec.Bytes())
			}
			finish(fmt.Errorf("exchange: shipped scan: %w", err))
			return
		}
	}

	left := make(chan Batch, win)
	right := make(chan Batch, win)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		leftOpen, rightOpen := frag.LeftScan == nil, frag.RightScan == nil
		defer func() {
			if leftOpen {
				close(left)
			}
			if rightOpen {
				close(right)
			}
			resWin.close()
		}()
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case frameLeft:
				b, err := decodeBatch(payload)
				if err != nil {
					return
				}
				left <- b
			case frameRight:
				b, err := decodeBatch(payload)
				if err != nil {
					return
				}
				right <- b
			case frameEndLeft:
				if leftOpen {
					close(left)
					leftOpen = false
				}
			case frameEndRight:
				if rightOpen {
					close(right)
					rightOpen = false
				}
			case frameCredit:
				if len(payload) == 1 && payload[0] == creditResult {
					resWin.release(1)
				}
			case frameCancel:
				// Coordinator abandoned the fragment: return so the deferred
				// closes tear down the input streams and the result window —
				// the join unwinds, staged partitions are freed, and the
				// final error frame tells the coordinator we are done.
				if w.Stats != nil {
					w.Stats.Cancelled.Add(1)
				}
				return
			}
		}
	}()

	// Pumps hand batches to the join and grant a credit per batch consumed.
	// A shipped side is fed windows of the scanned shard instead — no wire
	// traffic, no credits, no copy.
	leftOut := make(chan Batch)
	rightOut := make(chan Batch)
	pump := func(in <-chan Batch, out chan<- Batch, dir byte) {
		defer close(out)
		for b := range in {
			out <- b
			_ = fw.write(frameCredit, []byte{dir})
		}
	}
	feed := func(v *vec.Vec, out chan<- Batch) {
		defer close(out)
		defer addStaged(-v.Bytes())
		feedShard(v, frag.BatchSize, out)
	}
	if frag.LeftScan != nil {
		go feed(lvec, leftOut)
	} else {
		go pump(left, leftOut, creditLeft)
	}
	if frag.RightScan != nil {
		go feed(rvec, rightOut)
	} else {
		go pump(right, rightOut, creditRight)
	}

	joinSpan := root.child("join", since())
	emit := func(b Batch) error {
		if !resWin.acquire() {
			return ErrWorkerDisconnected
		}
		off := since()
		if fs.FirstNanos == 0 {
			fs.FirstNanos = off
			joinSpan.FirstNanos = off
		}
		fs.LastNanos = off
		fs.Rows += int64(b.Len())
		fs.Batches++
		return fw.writeBatch(frameResult, b)
	}
	joinErr := w.Join(frag, leftOut, rightOut, emit)
	joinSpan.EndNanos = since()
	joinSpan.Attrs = map[string]string{
		"method": frag.Method,
		"rows":   strconv.FormatInt(fs.Rows, 10),
	}
	if fs.LastNanos == 0 {
		fs.LastNanos = joinSpan.EndNanos
	}
	// Unblock the pumps if the join bailed before exhausting its inputs.
	go drainBatches(leftOut)
	go drainBatches(rightOut)
	finish(joinErr)
	// Wait for the coordinator to close its side before closing ours: a
	// result credit can still be in flight for the last batch, and closing
	// with unread data pending makes TCP reset the connection — discarding
	// the final result/end/error frames from the coordinator's receive
	// buffer mid-frame. The coordinator always closes once it has read the
	// end (or failed), which surfaces here as the reader's EOF.
	<-readerDone
}
