// Package core assembles the paper's contribution into one component: a
// parallel query optimizer that minimizes response time subject to bounds
// on extra work (§2), over the operator-tree execution space (§4), using
// the resource-descriptor cost calculus (§5) and partial-order dynamic
// programming (§6). It also wires the optimizer to the machine simulator
// and the execution engine so optimized plans can be run and verified.
package core

import (
	"context"
	"fmt"
	"strings"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
	"paropt/internal/obs/accuracy"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/search"
	"paropt/internal/sim"
	"paropt/internal/storage"
)

// Algorithm selects the search strategy (the rows of Table 1).
type Algorithm int

const (
	// PartialOrderDP is Figure 2 over left-deep trees with the
	// resource-vector(+order) metric — the paper's recommendation.
	PartialOrderDP Algorithm = iota
	// PartialOrderDPBushy is Figure 2 over bushy trees ([GHK92]).
	PartialOrderDPBushy
	// WorkDP is the traditional Figure 1 optimizer on total work.
	WorkDP
	// NaiveRTDP is Figure 1 with response time as a total order — unsound
	// per Example 3; provided for comparison experiments.
	NaiveRTDP
	// BruteForceLeftDeep enumerates all n! join orders.
	BruteForceLeftDeep
	// BruteForceBushy enumerates all bushy shapes.
	BruteForceBushy
	// TwoPhase is the XPRS-style baseline: pick the work-optimal tree
	// first, then parallelize it ([HS91]; contrasted in §1).
	TwoPhase
	// IterativeImprovement is non-exhaustive bushy search by greedy descent
	// from random starts (§7's outlook).
	IterativeImprovement
	// SimulatedAnnealing is non-exhaustive bushy search with an annealing
	// schedule (§7's outlook).
	SimulatedAnnealing
)

// algorithms is the one table behind Algorithm, indexed by its value: the
// -alg spelling, the Table 1 name, the search it runs, and what NewOptimizer
// prunes and ranks by (a nil metric is the resource-vector(+order) partial
// order, sized to the machine).
var algorithms = [...]struct {
	flag, name string
	run        func(*search.Searcher) (*search.Result, error)
	metric     search.Metric
	final      search.Comparator
}{
	PartialOrderDP:       {"podp", "p.o. DP for left-deep", (*search.Searcher).PODPLeftDeep, nil, search.ByRT},
	PartialOrderDPBushy:  {"podp-bushy", "p.o. DP for bushy", (*search.Searcher).PODPBushy, nil, search.ByRT},
	WorkDP:               {"work", "DP for left-deep (work)", (*search.Searcher).DPLeftDeep, search.WorkMetric{}, search.ByWork},
	NaiveRTDP:            {"naive-rt", "DP for left-deep (naive RT)", (*search.Searcher).DPLeftDeep, search.RTMetric{}, search.ByRT},
	BruteForceLeftDeep:   {"brute", "brute force for left-deep", (*search.Searcher).BruteForceLeftDeep, nil, search.ByRT},
	BruteForceBushy:      {"brute-bushy", "brute force for bushy", (*search.Searcher).BruteForceBushy, nil, search.ByRT},
	TwoPhase:             {"two-phase", "two-phase (work tree, then parallelize)", (*search.Searcher).TwoPhase, nil, search.ByRT},
	IterativeImprovement: {"ii", "iterative improvement (bushy)", randomized(false), nil, search.ByRT},
	SimulatedAnnealing:   {"anneal", "simulated annealing (bushy)", randomized(true), nil, search.ByRT},
}

func randomized(anneal bool) func(*search.Searcher) (*search.Result, error) {
	return func(s *search.Searcher) (*search.Result, error) {
		opts := search.DefaultRandomizedOptions()
		opts.Anneal = anneal
		return s.Randomized(opts)
	}
}

func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithms) }

// String names the algorithm as in Table 1.
func (a Algorithm) String() string {
	if !a.known() {
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// ParseAlgorithm maps a command-line algorithm name to its Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, row := range algorithms {
		if row.flag == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", name, AlgorithmFlags())
}

// AlgorithmFlags lists every command-line algorithm name, for -alg help text.
func AlgorithmFlags() string {
	names := make([]string, len(algorithms))
	for a, row := range algorithms {
		names[a] = row.flag
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// Config assembles an optimization session.
type Config struct {
	// Machine describes the parallel machine; zero value means the default
	// 4-CPU/4-disk/1-net node.
	Machine machine.Config
	// Params is the work model; zero value means cost.DefaultParams().
	Params *cost.Params
	// Algorithm defaults to PartialOrderDP.
	Algorithm Algorithm
	// Bound optionally constrains extra work (§2). Nil means unbounded.
	Bound search.Bound
	// Metric overrides the pruning metric; nil picks the algorithm's
	// canonical one.
	Metric search.Metric
	// AvoidCrossProducts enables the System R heuristic (default on via
	// NewOptimizer).
	AvoidCrossProducts *bool
	// MemoryPages, when positive, constrains plans to a peak memory demand
	// of at most this many pages (§7's non-preemptable resource, modeled as
	// a hard constraint).
	MemoryPages int64
	// Methods restricts the join methods enumerated; nil means all.
	Methods []plan.JoinMethod
	// CoverCap bounds cover sets to this many plans (beam search) when
	// > 0, trading exactness for bounded search cost at large n.
	CoverCap int
	// Expand and Annotate tune operator-tree generation.
	Expand   *optree.ExpandOptions
	Annotate *optree.AnnotateOptions
	// Placed maps relation name → data placement (partitioning column and
	// owning nodes). Co-located joins of placed relations then pay no
	// interconnect while misplaced ones are charged from the real nodes —
	// placement reshapes cover sets and plan choice.
	Placed map[string]cost.PlacedRelation
}

// Optimizer optimizes one query against one catalog and machine.
type Optimizer struct {
	Cat  *catalog.Catalog
	Q    *query.Query
	M    *machine.Machine
	Est  *plan.Estimator
	Mod  *cost.Model
	opts search.Options
	alg  Algorithm
	bnd  search.Bound
}

// Plan is an optimized plan with its costs and provenance.
type Plan struct {
	// Tree is the annotated join tree.
	Tree *plan.Node
	// Op is the expanded, annotated operator tree.
	Op *optree.Op
	// Desc is the resource descriptor under the session model.
	Desc cost.ResDescriptor
	// Baseline is the work-optimal plan used for §2 bounds (nil when the
	// algorithm is itself the work optimizer).
	Baseline *Plan
	// Frontier is the cover set at the root (partial-order algorithms), or
	// what a cached CoverSet kept of it; FrontierSize is the whole cover's
	// size either way.
	Frontier     []*search.Candidate
	FrontierSize int
	// Stats are the search counters.
	Stats search.Stats
	// Algorithm that produced the plan.
	Algorithm Algorithm
}

// RT is the estimated response time.
func (p *Plan) RT() float64 { return p.Desc.RT() }

// Work is the estimated total work.
func (p *Plan) Work() float64 { return p.Desc.Work() }

// Profile aggregates the search's per-layer telemetry records into the
// white-box SearchProfile (layer wall times, frontier sizes, prunes by
// reason) — attached to every optimize result via Stats.
func (p *Plan) Profile() search.SearchProfile { return p.Stats.Profile() }

// NewOptimizer validates the query and assembles the session.
func NewOptimizer(cat *catalog.Catalog, q *query.Query, cfg Config) (*Optimizer, error) {
	if cat == nil || q == nil {
		return nil, fmt.Errorf("core: catalog and query are required")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	mcfg := cfg.Machine
	if mcfg.CPUs == 0 && mcfg.Disks == 0 {
		mcfg = machine.DefaultConfig()
	}
	m := machine.New(mcfg)
	params := cost.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	est := plan.NewEstimator(cat, q)
	mod := cost.NewModel(cat, m, est, params)
	mod.Placed = cfg.Placed

	expand := optree.DefaultExpandOptions()
	if cfg.Expand != nil {
		expand = *cfg.Expand
	}
	annotate := optree.DefaultAnnotateOptions()
	if cfg.Annotate != nil {
		annotate = *cfg.Annotate
	}
	avoid := true
	if cfg.AvoidCrossProducts != nil {
		avoid = *cfg.AvoidCrossProducts
	}
	metric, final := cfg.Metric, search.Comparator(search.ByRT)
	if cfg.Algorithm.known() { // an unknown one is refused by Optimize
		if metric == nil {
			metric = algorithms[cfg.Algorithm].metric
		}
		final = algorithms[cfg.Algorithm].final
	}
	if metric == nil {
		metric = search.OrderedMetric{Base: search.ResourceVectorMetric{L: m.NumResources()}}
	}
	return &Optimizer{
		Cat: cat, Q: q, M: m, Est: est, Mod: mod,
		opts: search.Options{
			Model:              mod,
			Expand:             expand,
			Annotate:           annotate,
			Metric:             metric,
			Final:              final,
			AvoidCrossProducts: avoid,
			MemoryLimit:        cfg.MemoryPages,
			Methods:            cfg.Methods,
			CoverCap:           cfg.CoverCap,
		},
		alg: cfg.Algorithm,
		bnd: cfg.Bound,
	}, nil
}

// Optimize runs the configured algorithm (with the §2 bound pipeline when a
// bound is set) and returns the winning plan.
func (o *Optimizer) Optimize() (*Plan, error) {
	if o.bnd != nil && (o.alg == PartialOrderDP || o.alg == PartialOrderDPBushy) {
		best, baseline, stats, err := search.OptimizeBounded(o.opts, o.bnd, o.alg == PartialOrderDPBushy)
		if err != nil {
			return nil, err
		}
		bp, err := o.finish(baseline, nil, stats)
		if err != nil {
			return nil, err
		}
		p, err := o.finish(best, nil, stats)
		if err != nil {
			return nil, err
		}
		p.Baseline = bp
		return p, nil
	}
	if !o.alg.known() {
		return nil, fmt.Errorf("core: unknown algorithm %v", o.alg)
	}
	res, err := algorithms[o.alg].run(search.New(o.opts))
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, fmt.Errorf("core: no plan found (over-tight bound?)")
	}
	return o.finish(res.Best, res.Frontier, res.Stats)
}

// finish materializes a search candidate into a full Plan.
func (o *Optimizer) finish(c *search.Candidate, frontier []*search.Candidate, stats search.Stats) (*Plan, error) {
	if c == nil {
		return nil, fmt.Errorf("core: no plan found")
	}
	desc, op, err := o.Mod.PlanCost(c.Node, o.opts.Expand, o.opts.Annotate)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Tree:         c.Node,
		Op:           op,
		Desc:         desc,
		Frontier:     frontier,
		FrontierSize: len(frontier),
		Stats:        stats,
		Algorithm:    o.alg,
	}, nil
}

// Simulate executes the plan's operator tree on the machine simulator.
func (o *Optimizer) Simulate(p *Plan) (*sim.Result, error) {
	return sim.Simulate(p.Op, o.Mod)
}

// Execute runs the plan's annotated operator tree for real on generated
// data, each join at its annotated clone degree capped at parallel.
func (o *Optimizer) Execute(p *Plan, db *storage.Database, parallel int) (*engine.Resultset, error) {
	e := &engine.Executor{DB: db, Q: o.Q, Parallel: parallel}
	return e.ExecuteOp(p.Op)
}

// Analyze executes the plan's operator tree — the one the cost model priced,
// parallel capping each join's clone degree — with runtime-descriptor
// instrumentation and joins the measured per-operator (tf, tl) against the
// cost model's predictions — EXPLAIN ANALYZE for the §5 calculus. It returns
// the accuracy report alongside the raw execution stats.
func (o *Optimizer) Analyze(p *Plan, db *storage.Database, parallel int) (*accuracy.Report, *engine.ExecStats, error) {
	return o.AnalyzeLive(context.Background(), p, nil, db, parallel, nil, nil)
}

// AnalyzeLive is Analyze for served, observable, cancellable executions.
// inst, when non-nil, is the query instance to run: a plan cached under a
// template fingerprint is shared by every instance of the template, so the
// selection literals and projection come from inst while relation order and
// the plan stay the optimizer's. A nil transport keeps joins in-process; an
// exchange.Cluster ships every join fragment to worker processes. The caller
// may supply the ExecStats collector — so an in-flight registry can sample
// its live per-operator counters while the plan runs — and a context whose
// cancellation unwinds the execution at the engine's operator checkpoints.
// The error on a cancelled run is the context's cause.
func (o *Optimizer) AnalyzeLive(ctx context.Context, p *Plan, inst *query.Query, db *storage.Database, parallel int, tr exchange.Transport, stats *engine.ExecStats) (*accuracy.Report, *engine.ExecStats, error) {
	if stats == nil {
		stats = &engine.ExecStats{}
	}
	q := o.Q
	if inst != nil {
		bound := *o.Q
		bound.Selections, bound.Projection = inst.Selections, inst.Projection
		q = &bound
	}
	e := &engine.Executor{DB: db, Q: q, Parallel: parallel, Stats: stats, Transport: tr, Ctx: ctx}
	if _, err := e.ExecuteOp(p.Op); err != nil {
		return nil, nil, err
	}
	return accuracy.Analyze(o.Mod, p.Op, stats), stats, nil
}

// Explain renders a report: query, plan tree with derived properties, the
// operator tree with its Example 1 style annotation table, and the cost
// summary.
func (o *Optimizer) Explain(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:     %s\n", o.Q)
	fmt.Fprintf(&b, "machine:   %s\n", o.M)
	fmt.Fprintf(&b, "algorithm: %s\n\n", p.Algorithm)
	b.WriteString("join tree:\n")
	b.WriteString(p.Tree.Indent())
	b.WriteString("\noperator tree:\n  ")
	b.WriteString(p.Op.String())
	b.WriteString("\n\nannotations:\n")
	b.WriteString(p.Op.AnnotationTable())
	fmt.Fprintf(&b, "\nresponse time: %.2f\ntotal work:    %.2f\n", p.RT(), p.Work())
	if p.Baseline != nil {
		fmt.Fprintf(&b, "work-optimal baseline: rt=%.2f work=%.2f (speedup %.2fx for %.2fx work)\n",
			p.Baseline.RT(), p.Baseline.Work(),
			p.Baseline.RT()/p.RT(), p.Work()/p.Baseline.Work())
	}
	fmt.Fprintf(&b, "search: %d plans considered, %d physical plans costed, max cover %d\n",
		p.Stats.PlansConsidered, p.Stats.PhysicalPlans, p.Stats.MaxCoverSize)
	return b.String()
}
