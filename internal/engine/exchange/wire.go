package exchange

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paropt/internal/vec"
)

// nowNanos is a monotonic nanosecond clock (durations are immune to wall
// clock adjustments).
var clockBase = time.Now()

func nowNanos() int64 { return int64(time.Since(clockBase)) }

// Wire format: length-prefixed frames
//
//	[u32 length][u8 type][payload (length-1 bytes)]
//
// The length covers the type byte plus the payload, so a frame is never
// empty. Batch payloads are column-major: [u32 rows][u32 width], then width
// runs of rows little-endian int64 values, one run per column — the shape a
// batch has in memory on both sides, so a hop is one copy in and one copy
// out. Fragment payloads are JSON; error payloads are UTF-8 messages; credit
// payloads are a single direction byte.
//
// WireVersion names the batch payload layout (0: the row-major layout of
// builds that predate the field). The frame type numbers are the same in
// every version, so each Fragment carries its coordinator's version and a
// worker refuses any other before it reads a batch: a mixed-version fleet
// fails, or retries and falls back, with ErrWireVersion instead of joining
// transposed data.
const WireVersion = 1

const (
	frameFragment  byte = 1 // coordinator → worker: JSON Fragment, first frame
	frameLeft      byte = 2 // coordinator → worker: left-input batch
	frameRight     byte = 3 // coordinator → worker: right-input batch
	frameEndLeft   byte = 4 // coordinator → worker: left input exhausted
	frameEndRight  byte = 5 // coordinator → worker: right input exhausted
	frameResult    byte = 6 // worker → coordinator: result batch
	frameEndResult byte = 7 // worker → coordinator: join finished cleanly
	frameError     byte = 8 // worker → coordinator: join failed, payload = message
	frameCredit    byte = 9 // either direction: window credit, payload = direction
	// frameStats is the observability frame: worker → coordinator, JSON
	// FragmentStats, sent once immediately before frameEndResult (or
	// frameError). Old coordinators ignore unknown frame types and old
	// workers never send it, so the frame is compatible in both directions.
	frameStats byte = 10
	// frameCancel is the cancellation frame: coordinator → worker, no
	// payload. The worker abandons the fragment — tears down its input
	// streams so the join unwinds — and frees any staged partitions. Old
	// workers ignore the unknown type (the coordinator also closes the
	// connection, which aborts them the pre-cancel way).
	frameCancel byte = 11
)

// Credit directions.
const (
	creditLeft   byte = 0 // worker consumed one left batch
	creditRight  byte = 1 // worker consumed one right batch
	creditResult byte = 2 // coordinator consumed one result batch
)

// MaxFrame bounds a single frame (16 MiB) — a corrupt or hostile length
// prefix fails fast instead of allocating unbounded memory.
const MaxFrame = 16 << 20

// DefaultWindow is the per-direction credit window: at most this many
// un-acknowledged batches in flight per link direction. A coordinator may
// run another; its fragments carry the one it runs (Fragment.Window).
const DefaultWindow = 16

// MaxWindow and MaxBatchRows bound what a fragment may ask a worker for: a
// worker allocates a window's worth of channel slots and a batch's worth of
// builder rows up front, and an allocation it cannot satisfy ends the process
// rather than the fragment.
const (
	MaxWindow    = 1 << 10
	MaxBatchRows = 1 << 16
)

// ErrTruncatedFrame reports a frame cut short — a short read inside the
// length prefix or body, or a batch payload whose size disagrees with its
// header. Mid-stream it usually means the peer died.
var ErrTruncatedFrame = errors.New("exchange: truncated frame")

// ErrWireVersion reports a fragment refused because worker and coordinator
// disagree on WireVersion — upgrade paroptw together with paroptd.
var ErrWireVersion = errors.New("exchange: wire version mismatch")

// remoteError rebuilds the error a worker shipped as a frameError payload,
// restoring the ErrWireVersion identity its text carries.
func remoteError(payload []byte) error {
	msg := string(payload)
	if rest, ok := strings.CutPrefix(msg, ErrWireVersion.Error()); ok {
		return fmt.Errorf("%w%s", ErrWireVersion, rest)
	}
	return errors.New(msg)
}

// ErrBatchWidth reports an input stream whose batches changed width: a worker
// pins each stream's width at its first batch and fails the fragment on any
// other.
var ErrBatchWidth = errors.New("exchange: batch width changed mid-stream")

// ErrWorkerDisconnected reports a worker connection lost before the join
// finished.
var ErrWorkerDisconnected = errors.New("exchange: worker disconnected mid-stream")

// WorkerError attributes a transport failure to one worker link.
type WorkerError struct {
	Addr string
	Err  error
}

func (e *WorkerError) Error() string { return fmt.Sprintf("exchange: worker %s: %v", e.Addr, e.Err) }
func (e *WorkerError) Unwrap() error { return e.Err }

// pooledFrameMax is the largest frame buffer a connection hands back when
// its fragment ends: a full DefaultBatchRows batch of 16 columns. A larger
// one — a wide stream's, a hostile peer's up to MaxFrame — is left to the
// collector rather than pinned in the pool.
const pooledFrameMax = 5 + 8 + 16*8*vec.DefaultBatchRows

// framePool recycles the frame buffers of finished connections — writers'
// frames and readers' bodies — so a fragment on a warm process allocates
// none. An entry is the buffer's holder, kept with the buffer so handing it
// back allocates nothing.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// readerPool recycles the buffered readers of finished connections.
var readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// takeFrame returns a pooled frame buffer, empty, and its holder.
func takeFrame() ([]byte, *[]byte) {
	home := framePool.Get().(*[]byte)
	return (*home)[:0], home
}

// putFrame hands buf back in its holder if it is small enough to keep.
func putFrame(buf []byte, home *[]byte) {
	if home != nil && cap(buf) <= pooledFrameMax {
		*home = buf[:0]
		framePool.Put(home)
	}
}

// frameWriter is a connection's write half: it assembles each frame — length,
// type and payload — in one buffer it reuses and hands it to the connection
// in a single Write, serializing the goroutines that share the connection
// (partitioners, credits, Cancel). With stats set it meters every frame's
// bytes and time inside Write on the link. The buffer comes from framePool
// on the first frame and goes back on release.
type frameWriter struct {
	w     io.Writer
	stats *LinkStats
	mu    sync.Mutex
	buf   []byte
	home  *[]byte // buf's pool holder
}

// frame sizes buf for an n-byte payload, fills in the prefix and returns the
// payload's place in it. mu is held.
func (fw *frameWriter) frame(typ byte, n int) []byte {
	if fw.home == nil {
		fw.buf, fw.home = takeFrame()
	}
	if cap(fw.buf) < 5+n {
		fw.buf = make([]byte, 5+n)
	}
	fw.buf = fw.buf[:5+n]
	binary.LittleEndian.PutUint32(fw.buf, uint32(1+n))
	fw.buf[4] = typ
	return fw.buf[5:]
}

// flush writes the assembled frame. mu is held.
func (fw *frameWriter) flush() error {
	start := nowNanos()
	_, err := fw.w.Write(fw.buf)
	if err == nil && fw.stats != nil {
		fw.stats.SendNanos.Add(nowNanos() - start)
		fw.stats.BytesSent.Add(int64(len(fw.buf)))
	}
	return err
}

// write sends one frame with an opaque payload.
func (fw *frameWriter) write(typ byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	copy(fw.frame(typ, len(payload)), payload)
	return fw.flush()
}

// release hands the buffer back once the connection's fragment is over. A
// frame written after it — a late cancel — takes another.
func (fw *frameWriter) release() {
	fw.mu.Lock()
	putFrame(fw.buf, fw.home)
	fw.buf, fw.home = nil, nil
	fw.mu.Unlock()
}

// writeBatch sends one batch frame, encoding straight from the vector's
// columns a column at a time and applying any selection as it goes (a
// filtered batch ships only its live rows). The batch is copied out before
// writeBatch returns, so the caller may reuse its storage.
func (fw *frameWriter) writeBatch(typ byte, b Batch) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	rows, width := b.Len(), b.Width()
	out := fw.frame(typ, 8+rows*width*8)
	binary.LittleEndian.PutUint32(out[0:4], uint32(rows))
	binary.LittleEndian.PutUint32(out[4:8], uint32(width))
	out = out[8:]
	for _, col := range b.Cols {
		if b.Sel == nil {
			for i, x := range col[:rows] {
				binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
			}
		} else {
			for i, r := range b.Sel {
				binary.LittleEndian.PutUint64(out[8*i:], uint64(col[r]))
			}
		}
		out = out[8*rows:]
	}
	return fw.flush()
}

// frameReader is a connection's read half: frames come through a buffered
// reader (credits and headers cost no syscall of their own) into one body
// buffer it reuses. One reading goroutine. Reader and body come from their
// pools and go back on release.
type frameReader struct {
	r    *bufio.Reader
	max  uint32
	hdr  [4]byte // length-prefix scratch (a local would escape through io.ReadFull)
	body []byte
	home *[]byte // body's pool holder
}

func newFrameReader(r io.Reader, maxFrame uint32) *frameReader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	fr := &frameReader{r: br, max: maxFrame}
	fr.body, fr.home = takeFrame()
	return fr
}

// release hands the reader and body back once the connection's fragment is
// over; the frameReader is not read again.
func (fr *frameReader) release() {
	fr.r.Reset(nil)
	readerPool.Put(fr.r)
	putFrame(fr.body, fr.home)
	*fr = frameReader{}
}

// next reads one frame. The payload aliases the reader's buffer: it is valid
// until the following call, and whoever keeps any of it must copy (decodeBatch
// does). A clean EOF at a frame boundary returns io.EOF; a short read inside
// a frame, or a length outside (0, max], returns ErrTruncatedFrame.
func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n == 0 || n > fr.max {
		return 0, nil, fmt.Errorf("%w: frame length %d out of range (max %d)", ErrTruncatedFrame, n, fr.max)
	}
	if uint32(cap(fr.body)) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	return body[0], body[1:], nil
}

// maxBatchWidth bounds a decoded batch's columns, and with it the column
// headers an empty batch's 13-byte frame can make the receiver allocate.
const maxBatchWidth = 1 << 16

// decodeBatch copies an encoded batch out of the frame buffer into a dense
// vector from vec.Make: pooled chunks for a full-sized batch, which come back
// when its last reader releases it, else one fresh slab — the only
// allocation of a batch's hop that scales with its size. A payload whose
// length disagrees with its header, however hostile, is ErrTruncatedFrame,
// never a panic.
func decodeBatch(p []byte) (Batch, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: batch header %d bytes", ErrTruncatedFrame, len(p))
	}
	// Checked in 64 bits under the width cap: in int, rows*width*8 wraps for
	// hostile headers, and a wrapped product can equal the payload length.
	nrows := int64(binary.LittleEndian.Uint32(p[0:4]))
	width := int64(binary.LittleEndian.Uint32(p[4:8]))
	p = p[8:]
	if width > maxBatchWidth || len(p)%8 != 0 || nrows*width != int64(len(p)/8) {
		return nil, fmt.Errorf("%w: batch payload %d bytes for %d rows × %d columns", ErrTruncatedFrame, len(p), nrows, width)
	}
	rows := int(nrows)
	b := vec.Make(int(width), rows)
	for _, col := range b.Cols {
		for i := range col {
			col[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*rows:]
	}
	return b, nil
}

// LinkStats counts traffic and backpressure on one coordinator↔worker link.
// The stall counters are the direct measurement of the paper's pipeline sync
// penalty δ(k): cumulative nanoseconds senders spent blocked on an empty
// credit window, per direction. StallLeft/StallRight are coordinator-side
// (waiting for the worker to credit an input batch); StallResult is
// worker-side (waiting for the coordinator to credit a result batch, shipped
// back in the FragmentStats frame). SendNanos is time spent inside frame
// writes — the observed wire time of the link's sent bytes.
type LinkStats struct {
	Addr        string
	BytesSent   atomic.Int64
	BytesRecv   atomic.Int64
	BatchesSent atomic.Int64
	BatchesRecv atomic.Int64
	StallLeft   atomic.Int64 // ns blocked sending left-input batches
	StallRight  atomic.Int64 // ns blocked sending right-input batches
	StallResult atomic.Int64 // ns the worker was blocked emitting results
	SendNanos   atomic.Int64 // ns inside frame writes (observed wire time)
}

// LinkSnapshot is a point-in-time copy of LinkStats.
type LinkSnapshot struct {
	Addr             string `json:"addr"`
	BytesSent        int64  `json:"bytes_sent"`
	BytesRecv        int64  `json:"bytes_recv"`
	BatchesSent      int64  `json:"batches_sent"`
	BatchesRecv      int64  `json:"batches_recv"`
	StallLeftNanos   int64  `json:"stall_left_nanos,omitempty"`
	StallRightNanos  int64  `json:"stall_right_nanos,omitempty"`
	StallResultNanos int64  `json:"stall_result_nanos,omitempty"`
	SendNanos        int64  `json:"send_nanos,omitempty"`
}

// Snapshot reads the counters atomically (individually, not as a group).
func (s *LinkStats) Snapshot() LinkSnapshot {
	return LinkSnapshot{
		Addr:             s.Addr,
		BytesSent:        s.BytesSent.Load(),
		BytesRecv:        s.BytesRecv.Load(),
		BatchesSent:      s.BatchesSent.Load(),
		BatchesRecv:      s.BatchesRecv.Load(),
		StallLeftNanos:   s.StallLeft.Load(),
		StallRightNanos:  s.StallRight.Load(),
		StallResultNanos: s.StallResult.Load(),
		SendNanos:        s.SendNanos.Load(),
	}
}

// window is a closable credit counter: senders acquire one credit per batch
// and block while the window is empty; the receiver's credits release them.
// Closing wakes all waiters with acquire() = false, aborting the stream.
// Every acquire that actually blocks accumulates its blocked duration into
// stall — the per-direction backpressure measurement exported on /metrics.
type window struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int
	closed bool
	stall  atomic.Int64 // cumulative ns acquirers spent blocked
}

func newWindow(n int) *window {
	w := &window{avail: n}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire takes one credit, blocking until one is available; it returns
// false when the window was closed. Time spent blocked is added to the
// window's cumulative stall counter — the fast path (credit available)
// never reads the clock.
func (w *window) acquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.avail == 0 && !w.closed {
		start := nowNanos()
		for w.avail == 0 && !w.closed {
			w.cond.Wait()
		}
		w.stall.Add(nowNanos() - start)
	}
	if w.closed {
		return false
	}
	w.avail--
	return true
}

// release returns credits to the window.
func (w *window) release(n int) {
	w.mu.Lock()
	w.avail += n
	w.mu.Unlock()
	w.cond.Broadcast()
}

// close aborts the window: all current and future acquires return false.
func (w *window) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// stallNanos reads the cumulative blocked time. Safe concurrently with
// acquirers (in-progress stalls are counted when they end).
func (w *window) stallNanos() int64 { return w.stall.Load() }
