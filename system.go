package raal

import (
	"context"
	"fmt"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/sql"
	"raal/internal/workload"
)

// System bundles a benchmark database with the full query-processing
// substrate: SQL front-end, Catalyst-style planner, truth execution
// engine, and cluster simulator.
type System struct {
	bench Benchmark
	seed  int64

	db      *catalog.Database
	est     *cardest.Estimator
	binder  *logical.Binder
	planner *physical.Planner
	eng     *engine.Engine
	sim     *sparksim.Simulator
}

// Open generates the named synthetic benchmark at the given scale and
// wires up the substrate. All generation is deterministic in seed.
func Open(bench Benchmark, scale float64, seed int64) (*System, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("raal: scale must be positive, got %v", scale)
	}
	var db *catalog.Database
	switch bench {
	case IMDB:
		db = datagen.IMDB(scale, seed)
	case TPCH:
		db = datagen.TPCH(scale, seed)
	default:
		return nil, fmt.Errorf("raal: unknown benchmark %q", bench)
	}
	est, err := cardest.New(db, 32, 16)
	if err != nil {
		return nil, err
	}
	eng := engine.New(db)
	eng.MaxRows = 2_000_000
	sim := sparksim.New(sparksim.DefaultConfig())
	sim.Seed = seed
	return &System{
		bench:   bench,
		seed:    seed,
		db:      db,
		est:     est,
		binder:  logical.NewBinder(db),
		planner: physical.NewPlanner(est),
		eng:     eng,
		sim:     sim,
	}, nil
}

// Benchmark returns the system's benchmark name.
func (s *System) Benchmark() Benchmark { return s.bench }

// TotalRows returns the database size in rows.
func (s *System) TotalRows() int { return s.db.TotalRows() }

// Tables returns the benchmark's table names.
func (s *System) Tables() []string { return s.db.TableNames() }

// bind parses a SQL query and binds it against the benchmark's catalog.
func (s *System) bind(query string) (*logical.Query, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.binder.Bind(stmt)
}

// Plan parses, binds, and enumerates candidate physical plans for a SQL
// query, Catalyst-default plan first.
func (s *System) Plan(query string) ([]*Plan, error) {
	bound, err := s.bind(query)
	if err != nil {
		return nil, err
	}
	return s.planner.Enumerate(bound)
}

// DefaultPlan returns the plan Spark's rule-based model would pick: the
// first plan Plan returns, built alone.
func (s *System) DefaultPlan(query string) (*Plan, error) {
	bound, err := s.bind(query)
	if err != nil {
		return nil, err
	}
	return s.planner.DefaultPlan(bound)
}

// Execute runs a plan on the truth engine, populating every node's actual
// cardinality and returning the query result.
func (s *System) Execute(p *Plan) (*Relation, error) {
	return s.eng.Run(p)
}

// Cost simulates the wall-clock execution time of p under res. If the
// plan has been Executed, true cardinalities drive the simulation.
func (s *System) Cost(p *Plan, res Resources) (float64, error) {
	return s.sim.Estimate(p, res)
}

// CostBreakdown decomposes the simulated cost of p under res into
// per-stage CPU, disk, network, and spill components.
func (s *System) CostBreakdown(p *Plan, res Resources) (*sparksim.CostBreakdown, error) {
	return s.sim.Breakdown(p, res)
}

// Run is the convenience composition: plan (default choice), execute, and
// cost under res.
func (s *System) Run(query string, res Resources) (*Relation, float64, error) {
	p, err := s.DefaultPlan(query)
	if err != nil {
		return nil, 0, err
	}
	rel, err := s.Execute(p)
	if err != nil {
		return nil, 0, err
	}
	sec, err := s.Cost(p, res)
	if err != nil {
		return nil, 0, err
	}
	return rel, sec, nil
}

// CollectOptions sizes a training-data collection run.
type CollectOptions struct {
	// NumQueries is the number of generated queries (default 400).
	NumQueries int
	// PlansPerQuery caps candidate plans per query (default 3).
	PlansPerQuery int
	// ResStatesPerPlan is how many random resource states each plan is
	// priced under (default 3).
	ResStatesPerPlan int
	// FixedRes pins every record to one allocation (the fixed-resource
	// RDBMS-style setting); nil means random states.
	FixedRes *Resources
	// Workers bounds concurrent plan/execute goroutines during
	// collection (0 = GOMAXPROCS capped at 8; 1 = serial). The dataset
	// is bit-identical at any worker count.
	Workers int
	// Seed defaults to the system seed.
	Seed int64
}

// Collect generates a workload and gathers (plan, resources, cost)
// training records, following the paper's data collection phase.
func (s *System) Collect(opt CollectOptions) (*Dataset, error) {
	cfg := workload.DefaultCollectConfig()
	if opt.NumQueries > 0 {
		cfg.NumQueries = opt.NumQueries
	}
	if opt.PlansPerQuery > 0 {
		cfg.PlansPerQuery = opt.PlansPerQuery
	}
	if opt.ResStatesPerPlan > 0 {
		cfg.ResStatesPerPlan = opt.ResStatesPerPlan
	}
	cfg.FixedRes = opt.FixedRes
	cfg.Workers = opt.Workers
	cfg.Seed = s.seed
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}

	var gen *workload.Generator
	var err error
	switch s.bench {
	case TPCH:
		gen, err = workload.NewTPCHGenerator(s.db, cfg.Seed)
	default:
		gen, err = workload.NewIMDBGenerator(s.db, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	return workload.CollectWith(s.est, gen, cfg)
}

// SelectPlan uses a trained cost model to choose the cheapest candidate
// plan for query under res, returning the plan and its predicted cost.
// A candidate set without one finite prediction is an error, never a
// silent pick. Candidates are executed first so the chosen plan carries
// true cardinalities (call Cost to price it).
func (s *System) SelectPlan(cm *CostModel, query string, res Resources) (*Plan, float64, error) {
	plans, err := s.Plan(query)
	if err != nil {
		return nil, 0, err
	}
	if len(plans) > 3 {
		plans = plans[:3]
	}
	for _, p := range plans {
		if _, err := s.Execute(p); err != nil {
			return nil, 0, err
		}
	}
	best, pred, err := cm.SelectPlanCtx(context.Background(), plans, res)
	if err != nil {
		return nil, 0, err
	}
	if best == nil {
		return nil, 0, fmt.Errorf("raal: no plan selected")
	}
	return best, pred, nil
}
