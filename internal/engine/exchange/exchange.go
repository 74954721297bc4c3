// Package exchange is the data-redistribution layer of the engine: the
// Gamma-style exchange operator factored behind a Transport interface, so a
// cloned join can shuffle its inputs either between goroutines of one
// process (Local) or across worker processes over TCP (Cluster/Worker) with
// length-prefixed frames, credit-based send windows and per-link traffic
// counters. The engine package builds on this; exchange itself depends only
// on storage.
package exchange

import (
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

// Hash64 mixes a key for partitioning. It lives in internal/storage (shared
// with worker-side placement shards); this alias keeps exchange's callers
// source-compatible.
func Hash64(v int64) uint64 { return storage.Hash64(v) }

// Partition maps a key to a partition in [0, parts) — storage.Partition.
func Partition(v int64, parts int) int { return storage.Partition(v, parts) }

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
// coordinator fallback.
type ScanSpec struct {
	Relation string       `json:"relation"`
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

// feedShard streams a scanned shard as bs-row batches: zero-copy windows of
// its columns, the way the engine's heap scan reads a local table.
func feedShard(v *vec.Vec, bs int, out chan<- Batch) {
	if bs <= 0 {
		bs = vec.DefaultBatchRows
	}
	for lo, n := 0, v.Len(); lo < n; lo += bs {
		out <- v.Window(lo, min(lo+bs, n))
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

// JoinFunc runs one fragment's serial join over its partition of the inputs,
// emitting result batches. The engine provides its serial join here, keeping
// exchange free of plan/query dependencies. Implementations must consume
// left and right to exhaustion (or until emit errors) and return emit's
// error, if any.
type JoinFunc func(frag Fragment, left, right <-chan Batch, emit func(Batch) error) error

// Join is one in-flight distributed join. Out delivers merged result
// batches from all partitions and is closed when every partition finishes;
// Err reports the first transport or worker failure, valid once Out is
// closed.
type Join interface {
	Out() <-chan Batch
	Err() error
}

// Transport runs join fragments over some substrate: in-process channels
// (Local) or worker processes (Cluster). Join consumes the two input
// streams to exhaustion even on failure, so upstream producers never block.
type Transport interface {
	Join(frag Fragment, left, right <-chan Batch) (Join, error)
	Close() error
}

// Local is the in-process transport: both inputs are hash-partitioned into
// per-partition channels and Fn joins each partition pair on its own
// goroutine — the original single-process exchange, behind the interface.
type Local struct {
	// Fn joins one partition pair; required.
	Fn JoinFunc
}

type localJoin struct {
	out  chan Batch
	err  error
	errs chan error
}

func (j *localJoin) Out() <-chan Batch { return j.out }
func (j *localJoin) Err() error        { return j.err }

// Join partitions both inputs and runs frag.Parts local workers.
func (l *Local) Join(frag Fragment, left, right <-chan Batch) (Join, error) {
	p := frag.Parts
	if p < 1 {
		p = 1
	}
	lparts := partitionStream(left, frag.LKeys[0], p)
	rparts := partitionStream(right, frag.RKeys[0], p)
	j := &localJoin{out: make(chan Batch, p), errs: make(chan error, p)}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			f := frag
			f.Part = i
			emit := func(b Batch) error {
				j.out <- b
				return nil
			}
			if err := l.Fn(f, lparts[i], rparts[i], emit); err != nil {
				select {
				case j.errs <- err:
				default:
				}
				drainBatches(lparts[i])
				drainBatches(rparts[i])
			}
		}(i)
	}
	go func() {
		wg.Wait()
		select {
		case j.err = <-j.errs:
		default:
		}
		close(j.out)
	}()
	return j, nil
}

// Close is a no-op: Local holds no connections.
func (l *Local) Close() error { return nil }

// partitionStream hash-partitions a stream into p streams on the key
// column without moving a value: each partition receives a view of the input
// batch — the same columns under that partition's selection vector.
func partitionStream(in <-chan Batch, key, p int) []<-chan Batch {
	chans := make([]chan Batch, p)
	streams := make([]<-chan Batch, p)
	for i := range chans {
		chans[i] = make(chan Batch, 4)
		streams[i] = chans[i]
	}
	go func() {
		defer func() {
			for i := range chans {
				close(chans[i])
			}
		}()
		sc := scatter{key: key, p: p}
		for b := range in {
			for i, sel := range sc.split(b) {
				if len(sel) > 0 {
					chans[i] <- &vec.Vec{Cols: b.Cols, Sel: sel}
				}
			}
		}
	}()
	return streams
}

// scatter is the redistribution kernel: one pass over the key column
// computes every live row's partition, a second fills one selection vector
// per partition (physical row indices, increasing). Both transports route
// rows with it — Local hands the selections out as batch views, Cluster
// gathers them into its per-link builders.
type scatter struct {
	key, p int
	parts  []int32 // scratch: partition of each live row
}

// split returns the p selection vectors of b. They share one freshly
// allocated array, so views built on them stay valid after the next call.
func (s *scatter) split(b Batch) [][]int32 {
	col := b.Cols[s.key]
	n := b.Len()
	if cap(s.parts) < n {
		s.parts = make([]int32, n)
	}
	parts := s.parts[:n]
	counts := make([]int, s.p)
	if b.Sel == nil {
		for i, k := range col {
			part := Partition(k, s.p)
			parts[i] = int32(part)
			counts[part]++
		}
	} else {
		for i, r := range b.Sel {
			part := Partition(col[r], s.p)
			parts[i] = int32(part)
			counts[part]++
		}
	}
	slab := make([]int32, n)
	sels := make([][]int32, s.p)
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
	return sels
}

// drainBatches consumes a stream to exhaustion.
func drainBatches(in <-chan Batch) {
	for range in {
	}
}
