package engine

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paropt/internal/engine/exchange"
	"paropt/internal/optree"
	"paropt/internal/plan"
)

// Runtime descriptors: the execution-time counterpart of the paper's §5
// cost calculus. The optimizer predicts a two-part descriptor (tf, tl) per
// operator; an instrumented execution measures the same two timestamps —
// when a node's stream produced its first row and when it closed — plus the
// rows that actually flowed, so predicted and actual descriptors can be
// joined per node (internal/obs/accuracy). Granularity is the join-tree
// node: each one lowers to one Operator, and the recorder wraps exactly that.

// NodeStat is one node's measured runtime descriptor. Times are relative to
// the execution start (ExecStats.T0).
type NodeStat struct {
	// Node is the join-tree node the stream belongs to (identity for the
	// predicted-vs-actual join).
	Node *plan.Node
	// Label is a human-readable node name ("scan(R1)", "hash-join{R1,R2}").
	Label string
	// Start is when the node's stream was opened.
	Start time.Duration
	// First is when the first row was produced — the actual tf. Zero when
	// the node produced no rows.
	First time.Duration
	// Last is when the stream closed — the actual tl.
	Last time.Duration
	// Rows and Batches count the node's actual output — the per-node work
	// the cardinality model predicted as plan.Node.Card.
	Rows, Batches int64
	// Clones is how many clones the node's operator ran: the partition count
	// of a cloned join, 1 for a serial one and for a scan.
	Clones int

	// Live counters, updated atomically per batch while the stream runs so
	// an observer (the in-flight query registry) can sample progress without
	// taking any lock the execution path contends on. liveFirst and liveLast
	// are nanosecond offsets from ExecStats.T0; liveLast non-zero means the
	// stream has closed and Rows/First/Last above are final.
	liveRows  atomic.Int64
	liveFirst atomic.Int64
	liveLast  atomic.Int64
}

// LiveRows returns the rows produced so far, readable mid-execution.
func (st *NodeStat) LiveRows() int64 { return st.liveRows.Load() }

// LiveFirst returns the first-output offset observed so far; zero when the
// stream has produced nothing yet.
func (st *NodeStat) LiveFirst() time.Duration { return time.Duration(st.liveFirst.Load()) }

// LiveLast returns the stream-close offset; zero while still running.
func (st *NodeStat) LiveLast() time.Duration { return time.Duration(st.liveLast.Load()) }

// RemoteFragment groups the worker-side measurements of one distributed
// join node: the FragmentStats every committed dispatch attempt shipped
// back (including synthesized coordinator-fallback entries), keyed by the
// node it executed and labeled like its NodeStat.
type RemoteFragment struct {
	Node  *plan.Node
	Label string
	Stats []*exchange.FragmentStats
}

// remoteJoin is a distributed join node whose transport collects worker-side
// stats; they are read when Remote is asked, after the execution.
type remoteJoin struct {
	node  *plan.Node
	label string
	sr    exchange.StatsReporter
}

// ExecStats collects runtime descriptors for one instrumented execution.
// Install it on Executor.Stats before Execute; read it after Execute
// returns (the stream-close chain orders all writes before the read).
type ExecStats struct {
	mu sync.Mutex
	// T0 is the time base; set when the first node starts (or pre-set).
	T0     time.Time
	nodes  []*NodeStat
	remote []remoteJoin
}

// Nodes returns the collected descriptors in stream-open (bottom-up,
// left-to-right) order.
func (s *ExecStats) Nodes() []*NodeStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*NodeStat(nil), s.nodes...)
}

// ByNode indexes the descriptors by join-tree node.
func (s *ExecStats) ByNode() map[*plan.Node]*NodeStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[*plan.Node]*NodeStat, len(s.nodes))
	for _, n := range s.nodes {
		m[n.Node] = n
	}
	return m
}

// Started returns the execution time base; zero before the first node
// opens its stream.
func (s *ExecStats) Started() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.T0
}

// Wall is the total measured execution time: the latest node Last.
func (s *ExecStats) Wall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w time.Duration
	for _, n := range s.nodes {
		if n.Last > w {
			w = n.Last
		}
	}
	return w
}

// Remote returns the worker-side fragment measurements the transport's joins
// collected, one entry per distributed join node that has any — complete once
// Execute has returned. Empty for local transports: exchange.Local joins
// don't report FragmentStats.
func (s *ExecStats) Remote() []*RemoteFragment {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*RemoteFragment
	for _, r := range s.remote {
		if fs := r.sr.FragmentStats(); len(fs) > 0 {
			out = append(out, &RemoteFragment{Node: r.node, Label: r.label, Stats: fs})
		}
	}
	return out
}

// addRemote registers a distributed node whose join reports worker-side stats.
func (s *ExecStats) addRemote(n *plan.Node, label string, sr exchange.StatsReporter) {
	s.mu.Lock()
	s.remote = append(s.remote, remoteJoin{n, label, sr})
	s.mu.Unlock()
}

// open registers a node at stream-open time and returns its stat.
func (s *ExecStats) open(n *plan.Node, label string, clones int) *NodeStat {
	now := time.Now()
	s.mu.Lock()
	if s.T0.IsZero() {
		s.T0 = now
	}
	st := &NodeStat{Node: n, Label: label, Start: now.Sub(s.T0), Clones: clones}
	s.nodes = append(s.nodes, st)
	s.mu.Unlock()
	return st
}

// nodeLabel renders a compact node name, e.g. "scan(R1)" or
// "hash-join{R1,R2}".
func (e *Executor) nodeLabel(n *plan.Node) string {
	if n.IsLeaf() {
		return n.Access.String() + "(" + n.Relation + ")"
	}
	members := n.Rels.Members()
	names := make([]string, 0, len(members))
	for _, i := range members {
		if i < len(e.Q.Relations) {
			names = append(names, e.Q.Relations[i])
		}
	}
	return n.Method.String() + "{" + strings.Join(names, ",") + "}"
}

// statsOp wraps a node's iterator in a recorder: it forwards batches
// unchanged while noting first-output and close times and counting rows in
// per-batch atomics an observer can sample mid-run. It exists only when
// stats are installed; the uninstrumented path pays nothing. Unlike the old
// channel-forwarding wrapper it adds no goroutine — measurement happens
// inline on the pull path.
type statsOp struct {
	op            Operator
	stats         *ExecStats
	st            *NodeStat
	rows, batches int64
	first         time.Duration
	finalized     bool
}

// record wraps the operator lowered for op — a scan or a join, running
// clones clones — in a recorder for op's join-tree node when stats are
// installed. An operator tree built by hand, with no Source, runs unrecorded.
func (e *Executor) record(op *optree.Op, o Operator, clones int) Operator {
	if e.Stats == nil || op.Source == nil {
		return o
	}
	return &statsOp{op: o, stats: e.Stats, st: e.Stats.open(op.Source, e.nodeLabel(op.Source), clones)}
}

func (s *statsOp) Next(ctx context.Context) (Batch, error) {
	b, err := s.op.Next(ctx)
	if err != nil {
		return nil, err
	}
	if b == nil {
		s.finalize()
		return nil, nil
	}
	n := int64(b.Len())
	if s.rows == 0 && n > 0 {
		s.first = time.Since(s.stats.T0)
		s.st.liveFirst.Store(int64(s.first))
	}
	s.rows += n
	s.batches++
	s.st.liveRows.Store(s.rows)
	return b, nil
}

// finalize commits the descriptor; the stream-closed marker (liveLast) is
// set last so a sampler that sees it also sees final counters.
func (s *statsOp) finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	last := time.Since(s.stats.T0)
	if last == 0 {
		last = 1 // non-zero marks the stream closed for samplers
	}
	s.stats.mu.Lock()
	s.st.First, s.st.Last, s.st.Rows, s.st.Batches = s.first, last, s.rows, s.batches
	s.stats.mu.Unlock()
	s.st.liveLast.Store(int64(last))
}

// Close finalizes the descriptor even when the consumer abandoned the
// stream early (error or cancellation) so samplers never see a stuck node.
func (s *statsOp) Close() {
	s.finalize()
	s.op.Close()
}
