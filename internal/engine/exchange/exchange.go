// Package exchange is the data-redistribution layer of the engine: the
// Gamma-style exchange operator factored behind a Transport interface, so a
// cloned join can shuffle its inputs either between goroutines of one
// process (Local) or across worker processes over TCP (Cluster/Worker) with
// length-prefixed frames, credit-based send windows and per-link traffic
// counters. Every batch stream crosses the package boundary as an Operator:
// a transport pulls its two inputs and is pulled for its result. The engine
// package builds on this; exchange itself depends only on storage and vec.
package exchange

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"paropt/internal/storage"
	"paropt/internal/vec"
)

// Batch is the unit of flow between operators and across the wire: a
// columnar vector batch (one []int64 per column plus an optional selection
// vector). The engine's Vec aliases it, so streams cross the transport
// layer without transposition — the wire codec serializes straight from
// the columns into column-major frames.
type Batch = *vec.Vec

// Operator is the Volcano-style pull iterator every batch stream is handed
// over as — between engine operators, into a transport and out of it: Next
// returns the next batch of the stream, nil at exhaustion, or an error (a
// cancelled context surfaces as its cause). Close releases the operator's
// resources — buffered inputs, hash tables, goroutines, child operators — and
// must be safe to call whether or not the stream was run to exhaustion.
// Whoever stops pulling calls Close; nobody drains.
type Operator interface {
	Next(ctx context.Context) (Batch, error)
	Close()
}

// ScanFilter is one pushed-down equality selection of a shipped scan: the
// worker keeps only rows whose column at position Col equals Val.
type ScanFilter struct {
	Col int   `json:"col"`
	Val int64 `json:"val"`
}

// ScanSpec describes a leaf scan a worker sources from its own store
// instead of the wire: partition Part (of the fragment's Parts) of the
// relation, hash-partitioned on the join-key column at position HashCol,
// with the query's equality selections applied. Because worker stores
// generate relations deterministically from the catalog, any worker can
// source any partition — the basis for fragment re-dispatch and
// coordinator fallback. Stats is the digest of the relation's statistics the
// scan was planned against (catalog.Relation.StatsDigest): a store generating
// the relation from other statistics holds other rows, and refuses the scan.
// Empty skips the check.
type ScanSpec struct {
	Relation string       `json:"relation"`
	Stats    string       `json:"stats,omitempty"`
	HashCol  int          `json:"hash_col"`
	Filters  []ScanFilter `json:"filters,omitempty"`
}

// Store sources base-relation partitions at a worker (or, for coordinator
// fallback, in-process). Implementations must be safe for concurrent use.
type Store interface {
	// ScanPartition returns hash partition part (of parts) of the relation
	// named by spec: the columns of the rows whose HashCol value hashes to
	// part, with the spec's filters applied as the selection vector. The
	// vector may alias the store's resident shard; callers only read it.
	ScanPartition(spec ScanSpec, part, parts int) (*vec.Vec, error)
}

// shardOp streams a scanned shard as bs-row batches: zero-copy windows of
// its columns, the way the engine's heap scan reads a local table. release,
// when set, runs once — at exhaustion or Close, whichever comes first — and
// is how a worker takes the shard off its StagedBytes gauge.
type shardOp struct {
	v       *vec.Vec
	bs, pos int
	release func()
}

func newShardOp(v *vec.Vec, bs int, release func()) *shardOp {
	if bs <= 0 {
		bs = vec.DefaultBatchRows
	}
	return &shardOp{v: v, bs: bs, release: release}
}

func (o *shardOp) Next(ctx context.Context) (Batch, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if o.pos >= o.v.Len() {
		o.Close()
		return nil, nil
	}
	lo := o.pos
	o.pos = min(lo+o.bs, o.v.Len())
	return o.v.Window(lo, o.pos), nil
}

func (o *shardOp) Close() {
	o.pos = o.v.Len()
	if o.release != nil {
		o.release()
		o.release = nil
	}
}

// recvOp is the pulling end of a channel one goroutine of this package fills
// and closes: a Local partition or a worker's demultiplexed input. taken,
// when set, runs for every batch pulled — the worker grants the sender's
// credit there, so a credit means the join took the batch. A producer that
// stops early cancels the join's context before it closes the channel, so an
// early close surfaces as that cause and only a full stream ends in nil.
type recvOp struct {
	ch    <-chan Batch
	taken func()
	// done, when set, is closed by Close: a join that ends before its input
	// does (an empty build side) tells the Local partitioner to drop this
	// partition's rows instead of blocking on them. A worker's sender needs no
	// telling — it stops at the credits it no longer gets.
	done chan struct{}
}

func (o *recvOp) Next(ctx context.Context) (Batch, error) {
	select {
	case b, ok := <-o.ch:
		if !ok {
			return nil, context.Cause(ctx)
		}
		if o.taken != nil {
			o.taken()
		}
		return b, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (o *recvOp) Close() {
	if o.done != nil {
		close(o.done)
		o.done = nil
	}
}

// ScanShipper is implemented by transports that can source leaf scans at
// the workers holding the data (Cluster with a placement map). The engine
// consults it before building a leaf's stream: a shipped scan sends no
// input bytes through the coordinator.
type ScanShipper interface {
	// ShipScan reports whether scans of the relation can be shipped, and
	// the partition count (the relation's owning-worker count) to use.
	ShipScan(relation string) (parts int, ok bool)
}

// Fragment describes one partition's share of a distributed join: the serial
// join a worker runs over its partition pair. It is the unit of dispatch —
// JSON-encoded on the wire.
type Fragment struct {
	// Method is the join method name ("hash", "merge", "nl").
	Method string `json:"method"`
	// LKeys and RKeys are the join key column positions in the left and
	// right input rows (first entry is the partitioning key).
	LKeys []int `json:"lkeys"`
	RKeys []int `json:"rkeys"`
	// Part is this fragment's partition number in [0, Parts).
	Part int `json:"part"`
	// Parts is the total partition count (the cloning degree).
	Parts int `json:"parts"`
	// BatchSize tunes the executor granularity on the worker.
	BatchSize int `json:"batch_size"`
	// Window is the coordinator's per-direction credit window, stamped by
	// Cluster.Join: the worker sizes its input channels and its result window
	// by it, so the two ends cannot disagree. 0 means DefaultWindow.
	Window int `json:"window,omitempty"`
	// LeftScan / RightScan, when set, tell the worker to source that input
	// from its own store (ScanSpec + Part/Parts) instead of the wire; the
	// coordinator then streams nothing for that side.
	LeftScan  *ScanSpec `json:"left_scan,omitempty"`
	RightScan *ScanSpec `json:"right_scan,omitempty"`
	// Epoch is the coordinator's cluster-membership epoch when the fragment
	// was dispatched — observability for re-dispatched fragments.
	Epoch int64 `json:"epoch,omitempty"`
	// TraceID propagates the coordinator's trace context across the wire:
	// workers echo it in their FragmentStats so the coordinator can merge
	// worker spans into the originating request trace. Empty when tracing
	// is off; old workers ignore the field (unknown JSON keys) and old
	// coordinators never set it, so it is compatible in both directions.
	TraceID string `json:"trace_id,omitempty"`
	// Wire is the coordinator's WireVersion, stamped by Cluster.Join; a
	// worker refuses a fragment whose version is not its own.
	Wire int `json:"wire,omitempty"`
}

// FullyShipped reports whether both inputs are worker-sourced: the fragment
// carries no coordinator-streamed state, so it can be re-dispatched to
// another worker (or run by the coordinator itself) after a failure.
func (f *Fragment) FullyShipped() bool { return f.LeftScan != nil && f.RightScan != nil }

// Validate checks what a Fragment decoded off a socket must satisfy before
// anything indexes by it. Key positions are only bounded below here; the join
// operators check them against the width of the first batch they see.
func (f *Fragment) Validate() error {
	if len(f.LKeys) == 0 || len(f.LKeys) != len(f.RKeys) {
		return fmt.Errorf("exchange: fragment has %d left and %d right join keys", len(f.LKeys), len(f.RKeys))
	}
	for i := range f.LKeys {
		if f.LKeys[i] < 0 || f.RKeys[i] < 0 {
			return errors.New("exchange: fragment has a negative join key position")
		}
	}
	if f.Parts < 1 || f.Part < 0 || f.Part >= f.Parts {
		return fmt.Errorf("exchange: fragment is partition %d of %d", f.Part, f.Parts)
	}
	if f.BatchSize < 0 || f.BatchSize > MaxBatchRows {
		return fmt.Errorf("exchange: fragment batch size %d outside 0..%d", f.BatchSize, MaxBatchRows)
	}
	if f.Window < 0 || f.Window > MaxWindow {
		return fmt.Errorf("exchange: fragment credit window %d outside 0..%d", f.Window, MaxWindow)
	}
	for _, spec := range []*ScanSpec{f.LeftScan, f.RightScan} {
		if spec != nil && spec.HashCol < 0 {
			return fmt.Errorf("exchange: shipped scan of %s hashes column %d", spec.Relation, spec.HashCol)
		}
	}
	return nil
}

// JoinFunc builds one fragment's serial join over its partition of the
// inputs: the returned operator yields the result batches and owns left and
// right (its Close closes them). On an error the inputs stay the caller's to
// close. The engine provides its serial join here, keeping exchange free of
// plan/query dependencies.
type JoinFunc func(frag Fragment, left, right Operator) (Operator, error)

// Transport runs join fragments over some substrate: goroutines of this
// process (Local) or worker processes (Cluster). Join starts the join and
// returns the operator that yields its merged result; ctx bounds everything
// the join runs. From the call on Join owns left and right — either may be
// nil when the fragment ships that side's scan — and closes each exactly
// once on every path, a failed start included. A failure anywhere in the
// join comes back as the error of the result's Next; its Close tears the
// join down and returns once the join's goroutines have exited.
type Transport interface {
	Join(ctx context.Context, frag Fragment, left, right Operator) (Operator, error)
}

// mergeOp is the result end of a running join: partition results arrive on
// out, which the join closes once every goroutine it started has exited. The
// join's own context — a child of the one Join was given — is its failure
// slot: whoever fails first cancels it with the error as the cause, every
// other goroutine unwinds on it, and Next reports it.
type mergeOp struct {
	ctx  context.Context
	stop context.CancelCauseFunc
	// abort is what Close stops a running join with: stop itself, or what a
	// Cluster join has to do besides (cancel frames, closing connections).
	abort   func(error)
	out     chan Batch
	drained bool // out was seen closed: nothing of the join is left running
}

func (o *mergeOp) Next(ctx context.Context) (Batch, error) {
	if o.drained {
		return nil, nil
	}
	select {
	case b, ok := <-o.out:
		if !ok {
			o.drained = true
			return nil, context.Cause(o.ctx)
		}
		return b, nil
	case <-o.ctx.Done():
		return nil, context.Cause(o.ctx)
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// send hands one result batch to the consumer; false means the join was
// stopped first and the sender should unwind.
func (o *mergeOp) send(b Batch) bool {
	select {
	case o.out <- b:
		return true
	case <-o.ctx.Done():
		return false
	}
}

// sendAll hands over a staged result, or reports why the join stopped.
func (o *mergeOp) sendAll(staged []Batch) error {
	for _, b := range staged {
		if !o.send(b) {
			return context.Cause(o.ctx)
		}
	}
	return nil
}

// Close aborts whatever still runs, waits for out to close and releases the
// join's context.
func (o *mergeOp) Close() {
	if !o.drained {
		o.abort(ErrJoinCancelled)
		for range o.out {
		}
		o.drained = true
	}
	o.stop(nil)
}

// closeInputs closes the inputs of a join that never started; a shipped side
// has none.
func closeInputs(left, right Operator) {
	if left != nil {
		left.Close()
	}
	if right != nil {
		right.Close()
	}
}

// Local is the in-process transport: both inputs are hash-partitioned into
// per-partition channels and Fn joins each partition pair on its own
// goroutine — the original single-process exchange, behind the interface.
type Local struct {
	// Fn joins one partition pair; required.
	Fn JoinFunc
}

// Join partitions both inputs and runs frag.Parts partition joins: two
// partitioner goroutines, one per partition, and one that closes the result.
func (l *Local) Join(ctx context.Context, frag Fragment, left, right Operator) (Operator, error) {
	frag.Parts = max(frag.Parts, 1)
	p := frag.Parts
	ctx, stop := context.WithCancelCause(ctx)
	j := &mergeOp{ctx: ctx, stop: stop, abort: stop, out: make(chan Batch, p)}
	var wg sync.WaitGroup
	lparts := partitionStream(ctx, stop, &wg, left, frag.LKeys[0], p)
	rparts := partitionStream(ctx, stop, &wg, right, frag.RKeys[0], p)
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			f := frag
			f.Part = i
			op, err := l.Fn(f, lparts[i], rparts[i])
			if err != nil {
				stop(err)
				return
			}
			defer op.Close()
			for {
				b, err := op.Next(ctx)
				if err != nil {
					stop(err)
					return
				}
				if b == nil {
					return
				}
				if !j.send(b) {
					return
				}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(j.out)
	}()
	return j, nil
}

// localPartDepth is how many batches a partition's channel holds. The
// partitioner used to be fed through a 4-deep channel by a goroutine pulling
// the input and handed on through 4-deep channels; it pulls the input itself
// now, and the channels kept the sum, 4 + 4 — with 4 alone exec_local's p50
// was 4 % and its CPU per request 5 % worse (EXPERIMENTS §XM1).
const localPartDepth = 8

// partitionStream starts the goroutine that pulls in to exhaustion and
// hash-partitions it into p streams on the key column without moving a value:
// each partition receives a view of the input batch — the same columns under
// that partition's selection vector — and the views share one claim on the
// batch and on the pooled slab their selections are cut from, so the last
// partition join to release its view hands both back. The partitioner drops
// the batch's own claim once the views hold theirs. The goroutine closes in
// when it stops, and fails the join with whatever in.Next returned.
func partitionStream(ctx context.Context, fail func(error), wg *sync.WaitGroup, in Operator, key, p int) []*recvOp {
	chans := make([]chan Batch, p)
	dones := make([]chan struct{}, p)
	parts := make([]*recvOp, p)
	for i := range chans {
		chans[i] = make(chan Batch, localPartDepth)
		dones[i] = make(chan struct{})
		parts[i] = &recvOp{ch: chans[i], done: dones[i]}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer in.Close()
		defer func() {
			for i := range chans {
				close(chans[i])
			}
		}()
		sc := scatter{key: key, p: p}
		var views []Batch
		for {
			b, err := in.Next(ctx)
			if err != nil {
				fail(err)
				return
			}
			if b == nil {
				return
			}
			sels, slab := sc.split(b)
			views = b.Views(views[:0], sels, slab)
			b.Release()
			for i, view := range views {
				if view == nil {
					continue
				}
				select {
				case chans[i] <- view:
				case <-dones[i]:
					view.Release()
				case <-ctx.Done():
					for _, v := range views[i:] {
						if v != nil {
							v.Release()
						}
					}
					return
				}
			}
		}
	}()
	return parts
}

// scatter is the redistribution kernel: one pass over the key column
// computes every live row's partition, a second fills one selection vector
// per partition (physical row indices, increasing). Both transports route
// rows with it — Local hands the selections out as batch views, Cluster
// gathers them into its per-link builders.
type scatter struct {
	key, p int
	parts  []int32   // scratch: partition of each live row
	counts []int     // scratch: live rows per partition
	sels   [][]int32 // scratch: the selection vectors' headers
}

// split returns the p selection vectors of b and the vec.TakeSel slab they
// are cut from, which the caller hands back once nothing reads them — with
// vec.PutSel, or through the views it cuts. The vectors' headers are
// scratch: the next call overwrites them.
func (s *scatter) split(b Batch) ([][]int32, []int32) {
	col := b.Cols[s.key]
	n := b.Len()
	if cap(s.parts) < n {
		s.parts = make([]int32, n)
	}
	parts := s.parts[:n]
	if s.counts == nil {
		s.counts = make([]int, s.p)
		s.sels = make([][]int32, s.p)
	}
	counts := s.counts
	clear(counts)
	if b.Sel == nil {
		for i, k := range col {
			part := storage.Partition(k, s.p)
			parts[i] = int32(part)
			counts[part]++
		}
	} else {
		for i, r := range b.Sel {
			part := storage.Partition(col[r], s.p)
			parts[i] = int32(part)
			counts[part]++
		}
	}
	slab := vec.TakeSel(n)
	sels := s.sels
	off := 0
	for i, c := range counts {
		sels[i] = slab[off : off : off+c]
		off += c
	}
	for i, part := range parts {
		r := int32(i)
		if b.Sel != nil {
			r = b.Sel[i]
		}
		sels[part] = append(sels[part], r)
	}
	return sels, slab
}
