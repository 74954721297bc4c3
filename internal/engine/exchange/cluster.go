package exchange

import (
	"context"
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
// after its first attempt fails, each to a live member not yet tried.
const DefaultRetries = 2

// ErrJoinCancelled is what a join still running is stopped with when its
// result operator is closed, and what a worker ends a fragment with on the
// resulting cancel frame.
var ErrJoinCancelled = errors.New("exchange: join cancelled")

// DefaultRetryBackoff is the pause before each fragment re-dispatch.
const DefaultRetryBackoff = 50 * time.Millisecond

// dialTimeout bounds worker dials.
const dialTimeout = 5 * time.Second

// ClusterConfig tunes the multi-worker transport.
type ClusterConfig struct {
	// Window is the per-direction credit window per link; 0 means
	// DefaultWindow. Every fragment carries it to its worker.
	Window int
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
	// Store and Fn enable coordinator fallback: when every dispatch of a
	// fully-shipped fragment fails, the coordinator runs it in-process as a
	// worker would — the partitions sourced from Store, joined by Fn —
	// rather than failing the query.
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

	mu              sync.Mutex
	links           map[string]*LinkStats
	fallbackReasons map[string]int64
}

// NewCluster builds a transport over the given worker addresses.
func NewCluster(addrs []string, cfg ClusterConfig) *Cluster {
	return &Cluster{
		addrs:           append([]string(nil), addrs...),
		cfg:             cfg,
		links:           make(map[string]*LinkStats),
		fallbackReasons: make(map[string]int64),
	}
}

// cancelGrace bounds how long an abandoned shipped attempt may keep reading
// while the worker unwinds; a hung worker surfaces as a read timeout.
const cancelGrace = time.Second

// Fragments counts fragment dispatches since the cluster was built
// (re-dispatches of the same fragment count again).
func (c *Cluster) Fragments() int64 { return c.fragments.Load() }

// ShippedScans counts leaf-scan sides sourced at workers instead of
// streamed from the coordinator.
func (c *Cluster) ShippedScans() int64 { return c.shipped.Load() }

// Retries counts fragment re-dispatches after a worker failure: attempts
// that went to another worker, not failures with none left to try.
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

// link is one dispatch of one fragment partition to one worker: the
// connection, its frame writer — metered on the worker's LinkStats — and,
// when the fragment streams a side, the credit windows its partitioners send
// under.
type link struct {
	conn       net.Conn
	addr       string
	stats      *LinkStats
	fw         frameWriter
	dispatched time.Time
	// leftWin and rightWin are nil on a fully-shipped fragment's link.
	leftWin, rightWin *window
}

// dispatch dials addr and sends it fragment f: the one way a fragment leaves
// the coordinator, streamed or shipped.
func (c *Cluster) dispatch(f Fragment, addr string) (*link, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, &WorkerError{Addr: addr, Err: err}
	}
	stats := c.linkFor(addr)
	l := &link{conn: conn, addr: addr, stats: stats, fw: frameWriter{w: conn, stats: stats}, dispatched: time.Now()}
	if !f.FullyShipped() {
		l.leftWin, l.rightWin = newWindow(f.Window), newWindow(f.Window)
	}
	err = conn.SetDeadline(time.Time{})
	if err == nil {
		var payload []byte
		if payload, err = json.Marshal(f); err == nil {
			err = l.fw.write(frameFragment, payload)
		}
	}
	if err != nil {
		l.close()
		return nil, &WorkerError{Addr: addr, Err: err}
	}
	c.fragments.Add(1)
	c.countShipped(&f)
	return l, nil
}

// close closes the connection and hands the frame writer's buffer back.
func (l *link) close() {
	l.conn.Close()
	l.fw.release()
}

// abandon is what a cancelled shipped join does to an open dispatch attempt:
// a frameCancel followed by a write-half close (the worker sees the cancel,
// abandons the fragment, and frees its staged partitions — its final
// stats/error frames still drain cleanly instead of being reset away), with a
// read deadline as backstop against hung workers.
func (l *link) abandon() {
	_ = l.fw.write(frameCancel, nil)
	if tc, ok := l.conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		_ = l.conn.SetReadDeadline(time.Now().Add(cancelGrace))
	} else {
		l.conn.Close()
	}
}

// read reads what the worker sends back until its fragment ends: every result
// batch goes to take, whose error ends the read, and is credited back; every
// input credit opens the window of its side. It returns the worker's
// FragmentStats (nil when the worker predates the stats frame) on a clean
// frameEndResult. Anything else is a *WorkerError — the worker's own
// frameError, an undecodable batch, or the connection lost — or take's error.
// A result credit that cannot be written is not an error of its own: the
// connection it failed on ends the read with one.
func (l *link) read(take func(Batch) error) (*FragmentStats, error) {
	fr := newFrameReader(l.conn, MaxFrame)
	defer fr.release()
	var fstats *FragmentStats
	for {
		typ, payload, err := fr.next()
		if err != nil {
			if err == io.EOF {
				err = ErrWorkerDisconnected
			} else {
				err = fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)
			}
			return nil, &WorkerError{Addr: l.addr, Err: err}
		}
		l.stats.BytesRecv.Add(int64(5 + len(payload)))
		switch typ {
		case frameResult:
			b, err := decodeBatch(payload)
			if err != nil {
				return nil, &WorkerError{Addr: l.addr, Err: err}
			}
			l.stats.BatchesRecv.Add(1)
			if err := take(b); err != nil {
				return nil, err
			}
			_ = l.fw.write(frameCredit, []byte{creditResult})
		case frameCredit:
			if len(payload) != 1 || l.leftWin == nil {
				break
			}
			switch payload[0] {
			case creditLeft:
				l.leftWin.release(1)
			case creditRight:
				l.rightWin.release(1)
			}
		case frameStats:
			var fs FragmentStats
			if json.Unmarshal(payload, &fs) == nil {
				fs.Addr = l.addr
				fs.Dispatched = l.dispatched
				l.stats.StallResult.Add(fs.ResultStallNanos)
				fstats = &fs
			}
		case frameEndResult:
			return fstats, nil
		case frameError:
			return nil, &WorkerError{Addr: l.addr, Err: remoteError(payload)}
		}
	}
}

// clusterJoin is a join in flight and the operator that yields its merged
// result. A streamed join holds one link per partition for its whole run; a
// fully-shipped join holds none — each of its dispatch attempts opens and
// closes its own. Its FragmentStats hold one entry per committed attempt
// (stats of failed attempts are discarded along with their staged results;
// coordinator fallbacks appear with Worker = "coordinator").
type clusterJoin struct {
	mergeOp
	links []*link
	once  sync.Once

	mu     sync.Mutex
	fstats []*FragmentStats
}

// FragmentStats implements StatsReporter: valid once the join's result
// operator has reported exhaustion.
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

// cancel abandons the join from the coordinator's side — an input failed, the
// consumer closed the result, the query was cancelled: a best-effort
// frameCancel on every link lets the workers drop the fragment gracefully and
// free staged partitions, then the usual fail teardown.
func (j *clusterJoin) cancel(err error) {
	j.once.Do(func() {
		for _, l := range j.links {
			_ = l.fw.write(frameCancel, nil)
		}
		j.teardown(err)
	})
}

// fail records the first error and tears the join down. It takes no frame
// writer's lock, so a partitioner stuck writing to a dead worker cannot hold
// it up.
func (j *clusterJoin) fail(err error) { j.once.Do(func() { j.teardown(err) }) }

// teardown cancels the join's context — partitioners stop pulling, receivers
// stop delivering, shipped attempts abandon their links — closes the windows
// so partitioners stop sending and the connections so receivers unblock.
func (j *clusterJoin) teardown(err error) {
	j.stop(err)
	for _, l := range j.links {
		l.leftWin.close()
		l.rightWin.close()
		l.conn.Close()
	}
}

// Join dispatches the fragment's partitions to workers and merges the
// result streams. Fully-shipped fragments (both inputs worker-sourced) run
// on the fault-tolerant path: per-fragment retry on surviving members, then
// coordinator fallback. Fragments with coordinator-streamed inputs keep
// fail-fast semantics — their inputs are not replayable — and on any
// failure the join aborts with a typed *WorkerError.
func (c *Cluster) Join(ctx context.Context, frag Fragment, left, right Operator) (Operator, error) {
	err := context.Cause(ctx)
	if err == nil && len(c.addrs) == 0 {
		err = errors.New("exchange: cluster has no workers")
	}
	if err != nil {
		closeInputs(left, right)
		return nil, err
	}
	frag.Parts = max(frag.Parts, 1)
	if frag.BatchSize <= 0 {
		frag.BatchSize = vec.DefaultBatchRows
	}
	if frag.Window <= 0 {
		frag.Window = c.window()
	}
	if _, epoch := c.members(); epoch > 0 {
		frag.Epoch = epoch
	}
	if frag.TraceID == "" {
		frag.TraceID = c.cfg.TraceID
	}
	frag.Wire = WireVersion
	if frag.FullyShipped() {
		// No coordinator-streamed inputs: every partition is independently
		// retryable.
		return c.joinShipped(ctx, frag), nil
	}
	return c.joinStreamed(ctx, frag, left, right)
}

// joinStreamed is the streaming path: inputs not sourced at the workers are
// hash-partitioned here and streamed out under credit windows. At most one
// side may be shipped. It runs one partitioner goroutine per streamed side —
// the goroutine that pulls the input is the one that scatters and sends it —
// one receiver per link and one that closes the result.
func (c *Cluster) joinStreamed(ctx context.Context, frag Fragment, left, right Operator) (Operator, error) {
	p, bs := frag.Parts, frag.BatchSize

	j := &clusterJoin{}
	for i := 0; i < p; i++ {
		f := frag
		f.Part = i
		l, err := c.dispatch(f, c.ownerFor(&frag, i))
		if err != nil {
			for _, prev := range j.links {
				prev.close()
			}
			closeInputs(left, right)
			return nil, err
		}
		j.links = append(j.links, l)
	}
	jctx, stop := context.WithCancelCause(ctx)
	// The result channel holds a batch per partition. The 4-deep channel that
	// used to sit between it and the next join's partitioner went without
	// replacement: p + 4 here measured no different on exec_dist (§XM1).
	j.mergeOp = mergeOp{ctx: jctx, stop: stop, abort: j.cancel, out: make(chan Batch, p)}

	var sendWG, recvWG sync.WaitGroup
	partition := func(in Operator, key int, typ, endTyp byte, winOf func(*link) *window) {
		defer sendWG.Done()
		defer in.Close()
		var builders []*vec.Builder
		// ship sends partition i's accumulated rows. The frame writer copies
		// them out, so the builder keeps its slab for the next frame. A window
		// closed while the join still runs is a worker whose join ended before
		// its input did (an empty build side): the rows have nowhere to go.
		ship := func(i int) bool {
			l := j.links[i]
			if !winOf(l).acquire() {
				builders[i].Reset()
				return jctx.Err() == nil
			}
			err := l.fw.writeBatch(typ, builders[i].View())
			builders[i].Reset()
			if err != nil {
				j.fail(&WorkerError{Addr: l.addr, Err: fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)})
				return false
			}
			l.stats.BatchesSent.Add(1)
			return true
		}
		sc := scatter{key: key, p: p}
		for {
			b, err := in.Next(jctx)
			if err != nil {
				j.cancel(err)
				return
			}
			if b == nil {
				break
			}
			if builders == nil {
				builders = make([]*vec.Builder, p)
				for i := range builders {
					builders[i] = vec.NewBuilder(b.Width(), bs)
				}
			}
			// Gather each partition's rows column at a time, cutting at the
			// builder's room so every frame but a stream's last holds exactly
			// bs rows. Once they are all in the builders the batch and the
			// selection slab are done with.
			sels, slab := sc.split(b)
			for i, sel := range sels {
				bld := builders[i]
				for len(sel) > 0 {
					take := min(len(sel), bld.Room())
					bld.AppendGather(0, b.Cols, sel[:take])
					sel = sel[take:]
					if bld.Full() && !ship(i) {
						return
					}
				}
			}
			vec.PutSel(slab)
			b.Release()
		}
		for i, bld := range builders {
			if bld.Len() > 0 && !ship(i) {
				return
			}
			bld.Release()
		}
		for _, l := range j.links {
			if err := l.fw.write(endTyp, nil); err != nil {
				j.fail(&WorkerError{Addr: l.addr, Err: fmt.Errorf("%w: %v", ErrWorkerDisconnected, err)})
				return
			}
		}
	}
	if frag.LeftScan == nil {
		sendWG.Add(1)
		go partition(left, frag.LKeys[0], frameLeft, frameEndLeft, func(l *link) *window { return l.leftWin })
	}
	if frag.RightScan == nil {
		sendWG.Add(1)
		go partition(right, frag.RKeys[0], frameRight, frameEndRight, func(l *link) *window { return l.rightWin })
	}

	recv := func(l *link) {
		defer recvWG.Done()
		fs, err := l.read(func(b Batch) error {
			if !j.send(b) {
				return context.Cause(jctx)
			}
			return nil
		})
		if err != nil {
			j.fail(err) // a no-op after a teardown closed the connection: the first error stands
			return
		}
		if fs != nil {
			j.addStats(fs)
		}
		// The worker takes no more input: stop sending it any.
		l.leftWin.close()
		l.rightWin.close()
	}
	recvWG.Add(len(j.links))
	for _, l := range j.links {
		go recv(l)
	}

	go func() {
		recvWG.Wait()
		sendWG.Wait()
		for _, l := range j.links {
			// Fold this join's input-window stalls into the cumulative link
			// counters — the per-direction backpressure /metrics reads.
			l.stats.StallLeft.Add(l.leftWin.stallNanos())
			l.stats.StallRight.Add(l.rightWin.stallNanos())
			l.close()
		}
		close(j.out)
	}()
	return j, nil
}

// joinShipped runs a fully-shipped fragment: each partition is dispatched
// to its owning worker on its own goroutine and retried elsewhere on
// failure. Results of an attempt are staged and only merged into the output
// once the worker finishes cleanly, so a retry never duplicates rows.
func (c *Cluster) joinShipped(ctx context.Context, frag Fragment) Operator {
	p := frag.Parts
	jctx, stop := context.WithCancelCause(ctx)
	j := &clusterJoin{}
	j.mergeOp = mergeOp{ctx: jctx, stop: stop, abort: j.cancel, out: make(chan Batch, p)}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		f := frag
		f.Part = i
		go func(f Fragment) {
			defer wg.Done()
			if err := c.runShipped(f, j); err != nil {
				j.fail(err)
			}
		}(f)
	}
	go func() {
		wg.Wait()
		close(j.out)
	}()
	return j
}

// runShipped dispatches one fully-shipped fragment: first to its preferred
// owner, then — consulting live membership, after a backoff — to workers not
// yet tried, and finally runs it at the coordinator. Only a clean
// frameEndResult commits an attempt's staged results.
func (c *Cluster) runShipped(f Fragment, j *clusterJoin) error {
	tried := map[string]bool{}
	addr := c.ownerFor(&f, f.Part)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if j.ctx.Err() != nil {
			return context.Cause(j.ctx)
		}
		tried[addr] = true
		staged, fs, err := c.attemptShipped(f, addr, j)
		if err == nil {
			if fs != nil {
				fs.Retried = attempt
				j.addStats(fs)
			}
			return j.sendAll(staged)
		}
		lastErr = err
		if j.ctx.Err() != nil || attempt >= DefaultRetries {
			break
		}
		addrs, epoch := c.members()
		addr = ""
		for _, a := range addrs {
			if !tried[a] {
				addr = a
				break
			}
		}
		if addr == "" {
			break // every live member tried: nothing to re-dispatch
		}
		f.Epoch = epoch
		c.retries.Add(1)
		backoff := time.NewTimer(DefaultRetryBackoff)
		select {
		case <-backoff.C:
		case <-j.ctx.Done():
			backoff.Stop()
		}
	}
	if j.ctx.Err() != nil {
		return context.Cause(j.ctx)
	}
	if c.cfg.Store == nil || c.cfg.Fn == nil {
		return lastErr
	}
	// The no-replica-left degradation of last resort: the coordinator runs
	// the fragment with the worker's own runner, over its own store.
	reason := failureReason(lastErr)
	c.countFallback(reason)
	r := (&Worker{Join: c.cfg.Fn, Store: c.cfg.Store, ID: "coordinator"}).start(&f)
	r.fs.Dispatched = time.Now()
	var staged []Batch
	if err := r.run(j.ctx, nil, nil, func(b Batch) error {
		staged = append(staged, b)
		return nil
	}); err != nil {
		return fmt.Errorf("exchange: coordinator fallback: %w", err)
	}
	r.fs.Span.EndNanos = r.since()
	r.fs.FallbackReason = reason
	r.fs.Span.Attrs["fallback"] = reason
	j.addStats(r.fs)
	return j.sendAll(staged)
}

// attemptShipped runs one dispatch attempt of a fully-shipped fragment,
// returning the staged result batches and the worker's FragmentStats (nil
// when the worker predates the stats frame) on clean completion.
func (c *Cluster) attemptShipped(f Fragment, addr string, j *clusterJoin) ([]Batch, *FragmentStats, error) {
	l, err := c.dispatch(f, addr)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	// Runs at once when the join is already cancelled: the worker then sees
	// the cancel right behind the fragment.
	defer context.AfterFunc(j.ctx, l.abandon)()
	var staged []Batch
	fstats, err := l.read(func(b Batch) error {
		staged = append(staged, b)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return staged, fstats, nil
}
