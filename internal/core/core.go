// Package core assembles the paper's contribution into the served optimizer
// session: a parallel query optimizer that minimizes response time subject
// to bounds on extra work (§2), over the operator-tree execution space (§4),
// using the resource-descriptor cost calculus (§5) and partial-order dynamic
// programming over left-deep trees (§6, Figure 2). A session searches once
// for a reusable cover set, answers any §2 bound from it, explains its plans
// and runs them on the execution engine. The other rows of Table 1 are
// internal/repro.
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
	"paropt/internal/storage"
)

// Config assembles an optimization session.
type Config struct {
	// Machine describes the parallel machine; zero value means the default
	// 4-CPU/4-disk/1-net node.
	Machine machine.Config
	// Params is the work model; zero value means cost.DefaultParams().
	Params *cost.Params
	// MemoryPages, when positive, constrains plans to a peak memory demand
	// of at most this many pages (§7's non-preemptable resource, modeled as
	// a hard constraint).
	MemoryPages int64
	// Methods restricts the join methods enumerated; nil means all.
	Methods []plan.JoinMethod
	// CoverCap bounds cover sets to this many plans (beam search) when
	// > 0, trading exactness for bounded search cost at large n.
	CoverCap int
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
}

// Plan is an optimized plan with its costs and provenance.
type Plan struct {
	// Tree is the annotated join tree.
	Tree *plan.Node
	// Op is the expanded, annotated operator tree.
	Op *optree.Op
	// Desc is the resource descriptor under the session model.
	Desc cost.ResDescriptor
	// Baseline is the work-optimal plan used for §2 bounds (nil for an
	// unbounded plan).
	Baseline *Plan
	// Frontier is the cover set at the root (partial-order algorithms), or
	// what a cached CoverSet kept of it; FrontierSize is the whole cover's
	// size either way.
	Frontier     []*search.Candidate
	FrontierSize int
	// Stats are the search counters.
	Stats search.Stats
	// Algorithm names, as in Table 1, the search that produced the plan.
	Algorithm string
}

// RT is the estimated response time.
func (p *Plan) RT() float64 { return p.Desc.RT() }

// Work is the estimated total work.
func (p *Plan) Work() float64 { return p.Desc.Work() }

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

	return &Optimizer{
		Cat: cat, Q: q, M: m, Est: est, Mod: mod,
		opts: search.Options{
			Model:              mod,
			Expand:             optree.DefaultExpandOptions(),
			Annotate:           optree.DefaultAnnotateOptions(),
			Metric:             search.OrderedMetric{Base: search.ResourceVectorMetric{L: m.NumResources()}},
			Final:              search.ByRT,
			AvoidCrossProducts: true,
			MemoryLimit:        cfg.MemoryPages,
			Methods:            cfg.Methods,
			CoverCap:           cfg.CoverCap,
		},
	}, nil
}

// SearchOptions returns a copy of the options the session's cover set is
// searched with: model, operator-tree tuning, limits, metric and ranking.
func (o *Optimizer) SearchOptions() search.Options { return o.opts }

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
		Algorithm:    "p.o. DP for left-deep", // the session's one search; repro.Optimize names its other rows
	}, nil
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
	if _, err := e.Run(p.Op); err != nil {
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
