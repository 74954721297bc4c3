package paropt

import (
	"paropt/internal/catalog"
	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/service"
	"paropt/internal/sim"
	"paropt/internal/storage"
	"paropt/internal/workload"
)

// Schema & statistics (System R style catalog).
type (
	// Catalog holds relations, statistics and indexes.
	Catalog = catalog.Catalog
	// Relation describes a base table.
	Relation = catalog.Relation
	// Column describes one attribute with its NDV statistic.
	Column = catalog.Column
	// Index describes an access path (clustered / covering / placement).
	Index = catalog.Index
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// Queries.
type (
	// Query is a Select-Project-Join query.
	Query = query.Query
	// ColumnRef names a relation column.
	ColumnRef = query.ColumnRef
	// JoinPredicate is an equijoin between two relations.
	JoinPredicate = query.JoinPredicate
	// Selection is a single-relation equality filter.
	Selection = query.Selection
	// GenConfig configures random workload generation.
	GenConfig = query.GenConfig
	// Shape is a join-graph topology (Chain, Star, Cycle, Clique).
	Shape = query.Shape
)

// Join-graph shapes for GenConfig.
const (
	Chain  = query.Chain
	Star   = query.Star
	Cycle  = query.Cycle
	Clique = query.Clique
)

// Generate builds a random catalog and query.
func Generate(cfg GenConfig) (*Catalog, *Query) { return query.Generate(cfg) }

// Machine model.
type (
	// MachineConfig sizes the parallel machine.
	MachineConfig = machine.Config
	// Machine is the built resource set.
	Machine = machine.Machine
)

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// Plans and operator trees.
type (
	// PlanNode is a node of an annotated join tree.
	PlanNode = plan.Node
	// JoinMethod annotates join nodes (NestedLoops, SortMerge, HashJoin).
	JoinMethod = plan.JoinMethod
	// Op is an operator-tree node (§4.2).
	Op = optree.Op
	// Estimator derives plan properties from statistics.
	Estimator = plan.Estimator
)

// Join methods.
const (
	NestedLoops = plan.NestedLoops
	SortMerge   = plan.SortMerge
	HashJoin    = plan.HashJoin
)

// NewEstimator builds a property estimator for a validated query.
func NewEstimator(cat *Catalog, q *Query) *Estimator { return plan.NewEstimator(cat, q) }

// Cost model.
type (
	// CostParams are the work-model knobs.
	CostParams = cost.Params
	// ResDescriptor is the §5.2 two-part resource descriptor.
	ResDescriptor = cost.ResDescriptor
	// CostModel prices operator trees on a machine.
	CostModel = cost.Model
)

// DefaultCostParams is the reference parameterization.
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// Search.
type (
	// Metric is a pruning metric (partial order over plans).
	Metric = search.Metric
	// Bound is a §2 extra-work bound.
	Bound = search.Bound
	// ThroughputDegradation bounds Wp ≤ K·Wo.
	ThroughputDegradation = search.ThroughputDegradation
	// CostBenefit bounds extra work per unit of response time saved.
	CostBenefit = search.CostBenefit
	// SearchStats are the Table 1 counters.
	SearchStats = search.Stats
	// LayerRecord is one DP layer's telemetry (time, candidates kept,
	// prunes by reason).
	LayerRecord = search.LayerRecord
	// SearchProfile aggregates a search's per-layer records.
	SearchProfile = search.SearchProfile
)

// Optimizer facade.
type (
	// Config assembles an optimization session.
	Config = core.Config
	// Optimizer optimizes one query.
	Optimizer = core.Optimizer
	// Plan is an optimized plan with costs and provenance.
	Plan = core.Plan
	// Run selects a Table 1 algorithm, a §2 bound and a metric override.
	Run = repro.Run
	// Algorithm selects the search strategy.
	Algorithm = repro.Algorithm
	// Provenance explains why a plan was chosen: the winner's cost
	// breakdown plus rejected frontier alternatives with loss reasons
	// (Optimizer.PlanProvenance, `paropt -why`, /explain?why=1).
	Provenance = core.Provenance
)

// Algorithms (the rows of Table 1).
const (
	PartialOrderDP       = repro.PartialOrderDP
	PartialOrderDPBushy  = repro.PartialOrderDPBushy
	WorkDP               = repro.WorkDP
	NaiveRTDP            = repro.NaiveRTDP
	BruteForceLeftDeep   = repro.BruteForceLeftDeep
	BruteForceBushy      = repro.BruteForceBushy
	TwoPhase             = repro.TwoPhase
	IterativeImprovement = repro.IterativeImprovement
	SimulatedAnnealing   = repro.SimulatedAnnealing
)

// NewOptimizer validates the query and assembles a session.
func NewOptimizer(cat *Catalog, q *Query, cfg Config) (*Optimizer, error) {
	return core.NewOptimizer(cat, q, cfg)
}

// Optimize runs one Table 1 algorithm over the session, under r's bound if
// it has one, and returns the winning plan.
func Optimize(opt *Optimizer, r Run) (*Plan, error) { return repro.Optimize(opt, r) }

// Serving layer (the optimizer as a daemon).
type (
	// Service is the long-running optimizer daemon: fingerprint-keyed plan
	// cache over cover sets, bounded worker pool, singleflight dedup, and
	// /metrics. Expose it over HTTP with Service.Handler (cmd/paroptd).
	Service = service.Service
	// ServiceConfig sizes the daemon.
	ServiceConfig = service.Config
	// OptimizeRequest is one serving request (query text + §2 bound knobs).
	OptimizeRequest = service.OptimizeRequest
	// OptimizeResponse is the served plan with cache provenance.
	OptimizeResponse = service.OptimizeResponse
	// CoverSet is a reusable search result: baseline + root Pareto
	// frontier, re-filterable under any §2 bound.
	CoverSet = core.CoverSet
)

// NewService builds and starts an optimizer daemon.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// Fingerprint canonicalizes a query (relation order, predicate order and
// side, literals stripped) and hashes it — the plan-cache identity of the
// query template.
func Fingerprint(q *Query) string { return query.Fingerprint(q) }

// CatalogFingerprint hashes everything the optimizer reads from a catalog;
// it versions plan-cache entries so statistics refreshes invalidate them.
func CatalogFingerprint(cat *Catalog) string { return cat.Fingerprint() }

// Execution substrates.
type (
	// Database holds generated tables.
	Database = storage.Database
	// Executor runs plans with real goroutine parallelism.
	Executor = engine.Executor
	// Resultset is a materialized query result.
	Resultset = engine.Resultset
	// SimResult is a simulated execution outcome.
	SimResult = sim.Result
)

// NewDatabase generates data for every relation of the catalog.
func NewDatabase(cat *Catalog, seed int64) *Database { return storage.NewDatabase(cat, seed) }

// Simulate executes an operator tree on the machine simulator.
func Simulate(op *Op, m *CostModel) (*SimResult, error) { return sim.Simulate(op, m) }

// Workloads.

// PortfolioWorkload is the paper's §1 decision-support scenario: a trades
// fact table star-joined to stocks, sectors, accounts and dates.
func PortfolioWorkload(disks int) (*Catalog, *Query) { return workload.Portfolio(disks) }

// PortfolioWorkloadSmall is the same schema scaled down ~1000× for in-memory
// execution.
func PortfolioWorkloadSmall(disks int) (*Catalog, *Query) { return workload.PortfolioSmall(disks) }

// TPCHWorkload is a TPC-H-shaped decision-support schema at the given scale
// with three SPJ queries modeled on Q3, Q5 and Q10's join cores.
func TPCHWorkload(disks int, scale float64) (*Catalog, []*Query) {
	return workload.TPCHLike(disks, scale)
}

// DistortNDVs returns a catalog copy with every NDV statistic multiplied by
// factor — the input to misestimation-sensitivity experiments.
func DistortNDVs(cat *Catalog, factor float64) *Catalog { return repro.DistortNDVs(cat, factor) }

// MisestimationRegret optimizes under distorted statistics and re-prices
// the chosen plan under the truth, returning (chosen RT, optimal RT).
func MisestimationRegret(cat *Catalog, q *Query, cfg Config, factor float64) (chosen, optimum float64, err error) {
	return repro.MisestimationRegret(cat, q, cfg, factor)
}
