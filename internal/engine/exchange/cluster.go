package exchange

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paropt/internal/vec"
)

// DefaultRetries is the extra dispatch attempts per fully-shipped fragment
// after its first attempt fails.
const DefaultRetries = 2

// ErrJoinCancelled aborts in-flight joins when the coordinator cancels the
// query (client cancel, deadline, or daemon shutdown).
var ErrJoinCancelled = errors.New("exchange: join cancelled")

// DefaultRetryBackoff is the pause before each fragment re-dispatch.
const DefaultRetryBackoff = 50 * time.Millisecond

// ClusterConfig tunes the multi-worker transport.
type ClusterConfig struct {
	// Window is the per-direction credit window per link; 0 means
	// DefaultWindow.
	Window int
	// MaxFrame bounds incoming frames; 0 means DefaultMaxFrame.
	MaxFrame uint32
	// DialTimeout bounds worker dials; 0 means 5s.
	DialTimeout time.Duration
	// Owners maps relation name → owning worker addresses in shard order
	// (from the placement map). Non-empty entries enable leaf-scan shipping
	// for that relation: the engine asks via ShipScan, fragment i is
	// dispatched to owner i, and the worker sources the shard locally.
	Owners map[string][]string
	// Members returns the live worker addresses and the membership epoch;
	// consulted when re-dispatching a failed fully-shipped fragment, so
	// mid-query deregistrations shrink the retry candidate set instead of
	// failing the query. Nil freezes membership at the construction addrs.
	Members func() (addrs []string, epoch int64)
	// Retries is the extra dispatch attempts per fully-shipped fragment
	// after the first fails; 0 means DefaultRetries, negative disables
	// retries entirely.
	Retries int
	// RetryBackoff is the pause before each re-dispatch; 0 means
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Store and Fn enable coordinator fallback: when every dispatch of a
	// fully-shipped fragment fails, the coordinator sources the partitions
	// from Store and runs Fn in-process rather than failing the query.
	Store Store
	Fn    JoinFunc
	// TraceID, when set, is stamped into every dispatched fragment so
	// workers tie their FragmentStats to the originating request trace.
	TraceID string
}

// Cluster is the multi-worker transport: each join fragment is dispatched on
// its own TCP connection to a worker, both inputs are hash-partitioned and
// streamed out under credit windows, and result batches are merged. With a
// placement map (Owners) leaf scans ship to the data instead: fragments go
// to the owning workers, which source their shards locally, and only join
// outputs cross the wire. Fully-shipped fragments are retried on surviving
// workers after a failure and fall back to the coordinator when no worker
// can run them. Per-link traffic counters accumulate across joins for
// /metrics.
type Cluster struct {
	addrs     []string
	cfg       ClusterConfig
	fragments atomic.Int64
	shipped   atomic.Int64
	retries   atomic.Int64
	fallbacks atomic.Int64
	cancelled atomic.Bool

	mu              sync.Mutex
	links           map[string]*LinkStats
	fallbackReasons map[string]int64

	// In-flight state Cancel tears down: streamed joins (cancelled with a
	// frameCancel per link plus the usual fail teardown) and the open
	// connections of shipped dispatch attempts (sent a frameCancel and
	// write-half-closed, so the worker abandons the fragment and frees its
	// staged partitions gracefully).
	actMu    sync.Mutex
	actJoins map[*clusterJoin]struct{}
	actConns map[net.Conn]*shippedConn
}

// shippedConn pairs a dispatch attempt's connection with its frame writer,
// through which Cancel injects a clean frameCancel between the attempt's own
// frames.
type shippedConn struct {
	conn net.Conn
	fw   frameWriter
}

// NewCluster builds a transport over the given worker addresses.
func NewCluster(addrs []string, cfg ClusterConfig) *Cluster {
	return &Cluster{
		addrs:           append([]string(nil), addrs...),
		cfg:             cfg,
		links:           make(map[string]*LinkStats),
		fallbackReasons: make(map[string]int64),
		actJoins:        make(map[*clusterJoin]struct{}),
		actConns:        make(map[net.Conn]*shippedConn),
	}
}

// Cancelled reports whether Cancel has been called.
func (c *Cluster) Cancelled() bool { return c.cancelled.Load() }

// cancelGrace bounds how long a cancelled shipped attempt may keep reading
// while the worker unwinds; a hung worker surfaces as a read timeout.
const cancelGrace = time.Second

// Cancel aborts every in-flight join and blocks new dispatches: streamed
// joins get a best-effort frameCancel on each worker link before the usual
// fail teardown; shipped dispatch attempts get a frameCancel followed by a
// write-half close (the worker sees the cancel, abandons the fragment, and
// frees its staged partitions — its final stats/error frames still drain
// cleanly instead of being reset away), with a read deadline as backstop
// against hung workers. Pending retries or fallbacks are skipped.
// Idempotent and safe concurrently with running joins.
func (c *Cluster) Cancel() {
	c.cancelled.Store(true)
	c.actMu.Lock()
	joins := make([]*clusterJoin, 0, len(c.actJoins))
	for j := range c.actJoins {
		joins = append(joins, j)
	}
	conns := make([]*shippedConn, 0, len(c.actConns))
	for _, sc := range c.actConns {
		conns = append(conns, sc)
	}
	c.actMu.Unlock()
	for _, j := range joins {
		j.cancel()
	}
	for _, sc := range conns {
		_ = sc.fw.write(frameCancel, nil)
		if tc, ok := sc.conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		} else {
			sc.conn.Close()
			continue
		}
		_ = sc.conn.SetReadDeadline(time.Now().Add(cancelGrace))
	}
}

// trackJoin registers a streamed join for Cancel teardown.
func (c *Cluster) trackJoin(j *clusterJoin) {
	c.actMu.Lock()
	c.actJoins[j] = struct{}{}
	c.actMu.Unlock()
}

func (c *Cluster) untrackJoin(j *clusterJoin) {
	c.actMu.Lock()
	delete(c.actJoins, j)
	c.actMu.Unlock()
}

// trackConn registers a shipped attempt's connection for Cancel teardown
// and returns its write handle; it returns nil — without registering —
// when the cluster is already cancelled, so the attempt aborts instead of
// racing the teardown.
func (c *Cluster) trackConn(cn net.Conn) *shippedConn {
	c.actMu.Lock()
	defer c.actMu.Unlock()
	if c.cancelled.Load() {
		return nil
	}
	sc := &shippedConn{conn: cn, fw: frameWriter{w: cn}}
	c.actConns[cn] = sc
	return sc
}

func (c *Cluster) untrackConn(cn net.Conn) {
	c.actMu.Lock()
	delete(c.actConns, cn)
	c.actMu.Unlock()
}

// Addrs returns the worker addresses the cluster dispatches to.
func (c *Cluster) Addrs() []string { return c.addrs }

// Fragments counts fragment dispatches since the cluster was built
// (re-dispatches of the same fragment count again).
func (c *Cluster) Fragments() int64 { return c.fragments.Load() }

// ShippedScans counts leaf-scan sides sourced at workers instead of
// streamed from the coordinator.
func (c *Cluster) ShippedScans() int64 { return c.shipped.Load() }

// Retries counts fragment re-dispatches after a worker failure.
func (c *Cluster) Retries() int64 { return c.retries.Load() }

// Fallbacks counts fragments the coordinator ran itself after every worker
// dispatch failed.
func (c *Cluster) Fallbacks() int64 { return c.fallbacks.Load() }

// FallbackReasons returns fallback counts keyed by typed reason
// ("worker_unreachable", "worker_died", "worker_error") — why the last
// dispatch attempt before each fallback failed.
func (c *Cluster) FallbackReasons() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.fallbackReasons))
	for k, v := range c.fallbackReasons {
		out[k] = v
	}
	return out
}

// failureReason classifies a dispatch failure for the fallback counter and
// span annotation: did the worker die mid-stream, was it never reachable,
// or did it run the fragment and report an error?
func failureReason(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrWorkerDisconnected), errors.Is(err, ErrTruncatedFrame):
		return "worker_died"
	default:
		var op *net.OpError
		if errors.As(err, &op) {
			return "worker_unreachable"
		}
		return "worker_error"
	}
}

func (c *Cluster) countFallback(reason string) {
	c.fallbacks.Add(1)
	c.mu.Lock()
	c.fallbackReasons[reason]++
	c.mu.Unlock()
}

// Links snapshots per-link traffic counters, sorted by address.
func (c *Cluster) Links() []LinkSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LinkSnapshot, 0, len(c.links))
	for _, ls := range c.links {
		out = append(out, ls.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Close is a no-op: connections live per join, not per cluster.
func (c *Cluster) Close() error { return nil }

// ShipScan implements ScanShipper: scans of a relation with placed owners
// can be shipped, partitioned across the owner count.
func (c *Cluster) ShipScan(relation string) (int, bool) {
	owners := c.cfg.Owners[relation]
	return len(owners), len(owners) > 0
}

func (c *Cluster) linkFor(addr string) *LinkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, ok := c.links[addr]
	if !ok {
		ls = &LinkStats{Addr: addr}
		c.links[addr] = ls
	}
	return ls
}

func (c *Cluster) window() int {
	if c.cfg.Window > 0 {
		return c.cfg.Window
	}
	return DefaultWindow
}

func (c *Cluster) maxFrame() uint32 {
	if c.cfg.MaxFrame > 0 {
		return c.cfg.MaxFrame
	}
	return DefaultMaxFrame
}

func (c *Cluster) dialTimeout() time.Duration {
	if c.cfg.DialTimeout > 0 {
		return c.cfg.DialTimeout
	}
	return 5 * time.Second
}

func (c *Cluster) retryBudget() int {
	if c.cfg.Retries < 0 {
		return 0
	}
	if c.cfg.Retries == 0 {
		return DefaultRetries
	}
	return c.cfg.Retries
}

func (c *Cluster) retryBackoff() time.Duration {
	if c.cfg.RetryBackoff > 0 {
		return c.cfg.RetryBackoff
	}
	return DefaultRetryBackoff
}

// members returns the live worker set and epoch: the Members callback when
// installed, else the static construction addresses.
func (c *Cluster) members() ([]string, int64) {
	if c.cfg.Members != nil {
		return c.cfg.Members()
	}
	return c.addrs, 0
}

// ownerFor returns the preferred dispatch address for partition part of a
// fragment: the shipped side's owner in shard order, else round-robin over
// the static worker set.
func (c *Cluster) ownerFor(frag *Fragment, part int) string {
	for _, spec := range []*ScanSpec{frag.LeftScan, frag.RightScan} {
		if spec == nil {
			continue
		}
		if owners := c.cfg.Owners[spec.Relation]; len(owners) > 0 {
			return owners[part%len(owners)]
		}
	}
	return c.addrs[part%len(c.addrs)]
}

// countShipped bumps the shipped-scan counter for each worker-sourced side
// of a dispatched fragment.
func (c *Cluster) countShipped(frag *Fragment) {
	if frag.LeftScan != nil {
		c.shipped.Add(1)
	}
	if frag.RightScan != nil {
		c.shipped.Add(1)
	}
}

// workerConn is one coordinator↔worker link of one join.
type workerConn struct {
	conn       net.Conn
	addr       string
	stats      *LinkStats
	dispatched time.Time
	fw         frameWriter
	leftWin    *window
	rightWin   *window
}

type clusterJoin struct {
	out   chan Batch
	abort chan struct{}
	conns []*workerConn

	once   sync.Once
	mu     sync.Mutex
	err    error
	fstats []*FragmentStats
}

func (j *clusterJoin) Out() <-chan Batch { return j.out }

func (j *clusterJoin) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// FragmentStats implements StatsReporter: the worker-side measurements
// collected from frameStats frames, valid once Out is closed.
func (j *clusterJoin) FragmentStats() []*FragmentStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fstats
}

func (j *clusterJoin) addStats(fs *FragmentStats) {
	j.mu.Lock()
	j.fstats = append(j.fstats, fs)
	j.mu.Unlock()
}

// cancel sends a best-effort frameCancel on every link — letting workers
// abandon the fragment gracefully and free staged partitions — then runs
// the usual fail teardown.
func (j *clusterJoin) cancel() {
	for _, wc := range j.conns {
		_ = wc.fw.write(frameCancel, nil)
	}
	j.fail(ErrJoinCancelled)
}

// fail records the first error and tears the join down: windows close so
// partitioners stop sending, connections close so receivers unblock.
func (j *clusterJoin) fail(err error) {
	j.once.Do(func() {
		j.mu.Lock()
		j.err = err
		j.mu.Unlock()
		close(j.abort)
		for _, wc := range j.conns {
			wc.leftWin.close()
			wc.rightWin.close()
			wc.conn.Close()
		}
	})
}

// Join dispatches the fragment's partitions to workers and merges the
// result streams. Fully-shipped fragments (both inputs worker-sourced) run
// on the fault-tolerant path: per-fragment retry on surviving members, then
// coordinator fallback. Fragments with coordinator-streamed inputs keep
// fail-fast semantics — their inputs are not replayable — and on any
// failure the join aborts with a typed *WorkerError, with both input
// streams still consumed to exhaustion so upstream operators never block.
func (c *Cluster) Join(frag Fragment, left, right <-chan Batch) (Join, error) {
	if c.cancelled.Load() {
		go drainBatches(left)
		go drainBatches(right)
		return nil, ErrJoinCancelled
	}
	if len(c.addrs) == 0 {
		go drainBatches(left)
		go drainBatches(right)
		return nil, errors.New("exchange: cluster has no workers")
	}
	p := frag.Parts
	if p < 1 {
		p = 1
	}
	bs := frag.BatchSize
	if bs <= 0 {
		bs = vec.DefaultBatchRows
	}
	if _, epoch := c.members(); epoch > 0 {
		frag.Epoch = epoch
	}
	if frag.TraceID == "" {
		frag.TraceID = c.cfg.TraceID
	}
	frag.Wire = WireVersion
	if frag.FullyShipped() {
		// No coordinator-streamed inputs: nothing to drain, every partition
		// is independently retryable.
		return c.joinShipped(frag, p, bs)
	}
	return c.joinStreamed(frag, left, right, p, bs)
}

// joinStreamed is the streaming path: inputs not sourced at the workers are
// hash-partitioned here and streamed out under credit windows. At most one
// side may be shipped.
func (c *Cluster) joinStreamed(frag Fragment, left, right <-chan Batch, p, bs int) (Join, error) {
	win := c.window()
	maxFrame := c.maxFrame()

	j := &clusterJoin{out: make(chan Batch, p), abort: make(chan struct{})}
	drainInputs := func() {
		if frag.LeftScan == nil {
			go drainBatches(left)
		}
		if frag.RightScan == nil {
			go drainBatches(right)
		}
	}
	for i := 0; i < p; i++ {
		addr := c.ownerFor(&frag, i)
		conn, err := net.DialTimeout("tcp", addr, c.dialTimeout())
		if err == nil {
			err = conn.SetDeadline(time.Time{})
		}
		stats := c.linkFor(addr)
		wc := &workerConn{conn: conn, addr: addr, stats: stats, dispatched: time.Now(), fw: frameWriter{w: conn, stats: stats}, leftWin: newWindow(win), rightWin: newWindow(win)}
		if err == nil {
			f := frag
			f.Part = i
			f.Parts = p
			f.BatchSize = bs
			var payload []byte
			payload, err = json.Marshal(f)
			if err == nil {
				err = wc.fw.write(frameFragment, payload)
			}
		}
		if err != nil {
			for _, prev := range j.conns {
				prev.conn.Close()
			}
			if conn != nil {
				conn.Close()
			}
			drainInputs()
			return nil, &WorkerError{Addr: addr, Err: err}
		}
		c.fragments.Add(1)
		c.countShipped(&frag)
		j.conns = append(j.conns, wc)
	}

	var sendWG, recvWG sync.WaitGroup
	partition := func(in <-chan Batch, key int, typ, endTyp byte, winOf func(*workerConn) *window) {
		defer sendWG.Done()
		var builders []*vec.Builder
		aborted := false
		// ship sends partition i's accumulated rows. The frame writer copies
		// them out, so the builder keeps its slab for the next frame.
		ship := func(i int) bool {
			wc := j.conns[i]
			if !winOf(wc).acquire() {
				return false
			}
			err := wc.fw.writeBatch(typ, builders[i].View())
			builders[i].Reset()
			if err != nil {
				j.fail(&WorkerError{Addr: wc.addr, Err: fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)})
				return false
			}
			wc.stats.BatchesSent.Add(1)
			return true
		}
		sc := scatter{key: key, p: p}
		for b := range in {
			if aborted {
				continue // keep draining so upstream never blocks
			}
			if builders == nil {
				builders = make([]*vec.Builder, p)
				for i := range builders {
					builders[i] = vec.NewBuilder(b.Width(), bs)
				}
			}
			// Gather each partition's rows column at a time, cutting at the
			// builder's room so every frame but a stream's last holds exactly
			// bs rows.
			for i, sel := range sc.split(b) {
				bld := builders[i]
				for len(sel) > 0 && !aborted {
					take := min(len(sel), bld.Room())
					bld.AppendGather(0, b.Cols, sel[:take])
					sel = sel[take:]
					if bld.Full() && !ship(i) {
						aborted = true
					}
				}
			}
		}
		for i, bld := range builders {
			if aborted {
				break
			}
			if bld.Len() > 0 && !ship(i) {
				aborted = true
			}
		}
		if !aborted {
			for _, wc := range j.conns {
				if err := wc.fw.write(endTyp, nil); err != nil {
					j.fail(&WorkerError{Addr: wc.addr, Err: fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)})
					break
				}
			}
		}
	}
	if frag.LeftScan == nil {
		sendWG.Add(1)
		go partition(left, frag.LKeys[0], frameLeft, frameEndLeft, func(wc *workerConn) *window { return wc.leftWin })
	}
	if frag.RightScan == nil {
		sendWG.Add(1)
		go partition(right, frag.RKeys[0], frameRight, frameEndRight, func(wc *workerConn) *window { return wc.rightWin })
	}

	recv := func(wc *workerConn) {
		defer recvWG.Done()
		fr := newFrameReader(wc.conn, maxFrame)
		for {
			typ, payload, err := fr.next()
			if err != nil {
				select {
				case <-j.abort: // teardown closed the conn; keep the first error
				default:
					if err == io.EOF {
						err = ErrWorkerDisconnected
					} else {
						err = fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)
					}
					j.fail(&WorkerError{Addr: wc.addr, Err: err})
				}
				return
			}
			wc.stats.BytesRecv.Add(int64(5 + len(payload)))
			switch typ {
			case frameResult:
				b, derr := decodeBatch(payload)
				if derr != nil {
					j.fail(&WorkerError{Addr: wc.addr, Err: derr})
					return
				}
				wc.stats.BatchesRecv.Add(1)
				select {
				case j.out <- b:
				case <-j.abort:
					return
				}
				_ = wc.fw.write(frameCredit, []byte{creditResult})
			case frameCredit:
				if len(payload) == 1 {
					switch payload[0] {
					case creditLeft:
						wc.leftWin.release(1)
					case creditRight:
						wc.rightWin.release(1)
					}
				}
			case frameStats:
				var fs FragmentStats
				if json.Unmarshal(payload, &fs) == nil {
					fs.Addr = wc.addr
					fs.Dispatched = wc.dispatched
					wc.stats.StallResult.Add(fs.ResultStallNanos)
					j.addStats(&fs)
				}
			case frameEndResult:
				return
			case frameError:
				j.fail(&WorkerError{Addr: wc.addr, Err: remoteError(payload)})
				return
			}
		}
	}
	recvWG.Add(len(j.conns))
	for _, wc := range j.conns {
		go recv(wc)
	}

	// Register for Cancel teardown, then re-check: a Cancel that landed
	// between the cancelled-check in Join and this registration would have
	// missed the join.
	c.trackJoin(j)
	if c.cancelled.Load() {
		j.cancel()
	}

	go func() {
		recvWG.Wait()
		sendWG.Wait()
		for _, wc := range j.conns {
			// Fold this join's input-window stalls into the cumulative link
			// counters — the per-direction backpressure /metrics reads.
			wc.stats.StallLeft.Add(wc.leftWin.stallNanos())
			wc.stats.StallRight.Add(wc.rightWin.stallNanos())
			wc.conn.Close()
		}
		c.untrackJoin(j)
		close(j.out)
	}()
	return j, nil
}

// shippedJoin merges the independently-dispatched partitions of a
// fully-shipped fragment.
type shippedJoin struct {
	out    chan Batch
	mu     sync.Mutex
	err    error
	fstats []*FragmentStats
}

func (j *shippedJoin) Out() <-chan Batch { return j.out }

func (j *shippedJoin) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *shippedJoin) setErr(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// FragmentStats implements StatsReporter: one entry per committed attempt
// (stats of failed attempts are discarded along with their staged results;
// coordinator fallbacks appear with Worker = "coordinator").
func (j *shippedJoin) FragmentStats() []*FragmentStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fstats
}

func (j *shippedJoin) addStats(fs *FragmentStats) {
	j.mu.Lock()
	j.fstats = append(j.fstats, fs)
	j.mu.Unlock()
}

// joinShipped runs a fully-shipped fragment: each partition is dispatched
// to its owning worker on its own goroutine and retried elsewhere on
// failure. Results of an attempt are staged and only merged into the output
// once the worker finishes cleanly, so a retry never duplicates rows.
func (c *Cluster) joinShipped(frag Fragment, p, bs int) (Join, error) {
	j := &shippedJoin{out: make(chan Batch, p)}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		f := frag
		f.Part = i
		f.Parts = p
		f.BatchSize = bs
		go func(f Fragment) {
			defer wg.Done()
			if err := c.runShipped(f, j); err != nil {
				j.setErr(err)
			}
		}(f)
	}
	go func() {
		wg.Wait()
		close(j.out)
	}()
	return j, nil
}

// runShipped dispatches one fully-shipped fragment: first to its preferred
// owner, then — after a backoff, consulting live membership — to workers
// not yet tried, and finally to the coordinator's own store. Only a clean
// frameEndResult commits an attempt's staged results.
func (c *Cluster) runShipped(f Fragment, j *shippedJoin) error {
	tried := map[string]bool{}
	addr := c.ownerFor(&f, f.Part)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.cancelled.Load() {
			return ErrJoinCancelled
		}
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(c.retryBackoff())
			addrs, epoch := c.members()
			f.Epoch = epoch
			addr = ""
			for _, a := range addrs {
				if !tried[a] {
					addr = a
					break
				}
			}
			if addr == "" {
				break // every live member tried
			}
		}
		tried[addr] = true
		staged, fs, err := c.attemptShipped(f, addr)
		if err == nil {
			for _, b := range staged {
				j.out <- b
			}
			if fs != nil {
				if attempt > 0 {
					fs.Retried = attempt
				}
				j.addStats(fs)
			}
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrJoinCancelled) || attempt >= c.retryBudget() {
			break
		}
	}
	if c.cancelled.Load() {
		return ErrJoinCancelled
	}
	if c.cfg.Store != nil && c.cfg.Fn != nil {
		reason := failureReason(lastErr)
		c.countFallback(reason)
		fb := &FragmentStats{
			TraceID:        f.TraceID,
			Worker:         "coordinator",
			Part:           f.Part,
			Parts:          f.Parts,
			FallbackReason: reason,
			Dispatched:     time.Now(),
		}
		if err := c.runFallback(f, j, fb); err != nil {
			return err
		}
		j.addStats(fb)
		return nil
	}
	return lastErr
}

// attemptShipped runs one dispatch attempt of a fully-shipped fragment,
// returning the staged result batches and the worker's FragmentStats (nil
// when the worker predates the stats frame) on clean completion.
func (c *Cluster) attemptShipped(f Fragment, addr string) ([]Batch, *FragmentStats, error) {
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout())
	if err != nil {
		return nil, nil, &WorkerError{Addr: addr, Err: err}
	}
	defer conn.Close()
	sc := c.trackConn(conn)
	if sc == nil {
		return nil, nil, ErrJoinCancelled
	}
	defer c.untrackConn(conn)
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, nil, &WorkerError{Addr: addr, Err: err}
	}
	stats := c.linkFor(addr)
	dispatched := time.Now()
	payload, err := json.Marshal(f)
	if err != nil {
		return nil, nil, err
	}
	sendStart := nowNanos()
	if err := sc.fw.write(frameFragment, payload); err != nil {
		return nil, nil, &WorkerError{Addr: addr, Err: err}
	}
	stats.SendNanos.Add(nowNanos() - sendStart)
	stats.BytesSent.Add(int64(5 + len(payload)))
	c.fragments.Add(1)
	c.countShipped(&f)

	fr := newFrameReader(conn, c.maxFrame())
	var staged []Batch
	var fstats *FragmentStats
	for {
		typ, payload, err := fr.next()
		if err != nil {
			if err == io.EOF {
				err = ErrWorkerDisconnected
			} else {
				err = fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)
			}
			return nil, nil, &WorkerError{Addr: addr, Err: err}
		}
		stats.BytesRecv.Add(int64(5 + len(payload)))
		switch typ {
		case frameResult:
			b, derr := decodeBatch(payload)
			if derr != nil {
				return nil, nil, &WorkerError{Addr: addr, Err: derr}
			}
			stats.BatchesRecv.Add(1)
			staged = append(staged, b)
			if err := sc.fw.write(frameCredit, []byte{creditResult}); err != nil {
				return nil, nil, &WorkerError{Addr: addr, Err: err}
			}
			stats.BytesSent.Add(6)
		case frameStats:
			var fs FragmentStats
			if json.Unmarshal(payload, &fs) == nil {
				fs.Addr = addr
				fs.Dispatched = dispatched
				stats.StallResult.Add(fs.ResultStallNanos)
				fstats = &fs
			}
		case frameEndResult:
			return staged, fstats, nil
		case frameError:
			return nil, nil, &WorkerError{Addr: addr, Err: remoteError(payload)}
		}
	}
}

// runFallback executes a fully-shipped fragment in the coordinator process:
// both partitions are sourced from the configured store and joined with the
// configured join function — the no-replica-left degradation of last
// resort. Measurements land in fb so the fallback is as observable as a
// worker-run fragment.
func (c *Cluster) runFallback(f Fragment, j *shippedJoin, fb *FragmentStats) error {
	t0 := nowNanos()
	since := func() int64 { return nowNanos() - t0 }
	root := &RemoteSpan{Name: "fragment", Attrs: map[string]string{
		"method":   f.Method,
		"worker":   "coordinator",
		"fallback": fb.FallbackReason,
	}}
	fb.Span = root
	source := func(spec *ScanSpec) (chan Batch, error) {
		v, err := c.cfg.Store.ScanPartition(*spec, f.Part, f.Parts)
		if err != nil {
			return nil, err
		}
		ch := make(chan Batch, 1)
		go func() {
			defer close(ch)
			feedShard(v, f.BatchSize, ch)
		}()
		return ch, nil
	}
	left, err := source(f.LeftScan)
	if err != nil {
		return fmt.Errorf("exchange: fallback scan: %w", err)
	}
	right, err := source(f.RightScan)
	if err != nil {
		go drainBatches(left)
		return fmt.Errorf("exchange: fallback scan: %w", err)
	}
	joinSpan := root.child("join", since())
	var staged []Batch
	emit := func(b Batch) error {
		off := since()
		if fb.FirstNanos == 0 {
			fb.FirstNanos = off
			joinSpan.FirstNanos = off
		}
		fb.LastNanos = off
		fb.Rows += int64(b.Len())
		fb.Batches++
		staged = append(staged, b)
		return nil
	}
	if err := c.cfg.Fn(f, left, right, emit); err != nil {
		return fmt.Errorf("exchange: fallback join: %w", err)
	}
	joinSpan.EndNanos = since()
	root.EndNanos = joinSpan.EndNanos
	if fb.LastNanos == 0 {
		fb.LastNanos = joinSpan.EndNanos
	}
	for _, b := range staged {
		j.out <- b
	}
	return nil
}
