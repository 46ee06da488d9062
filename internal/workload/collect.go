package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/encode"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/sql"
)

// Record is one training observation: a physical plan executed under a
// resource allocation, with its simulated wall-clock cost.
type Record struct {
	QueryID int
	Plan    *physical.Plan
	Res     sparksim.Resources
	CostSec float64
}

// Dataset is a collected corpus plus the artifacts needed to encode it.
type Dataset struct {
	DB      *catalog.Database
	Est     *cardest.Estimator
	Records []Record
	Plans   []*physical.Plan // unique executed plans (for encoder fitting)
	Skipped int              // queries dropped due to bind/plan errors
}

// CollectConfig controls dataset collection.
type CollectConfig struct {
	NumQueries int
	// PlansPerQuery caps candidate plans evaluated per query (the paper
	// evaluates the first three Catalyst plans).
	PlansPerQuery int
	// ResStatesPerPlan is how many random resource states each plan is
	// priced under.
	ResStatesPerPlan int
	// FixedRes, when non-nil, replaces random resource states (the
	// paper's local fixed-resource setting for the TLSTM comparison).
	FixedRes *sparksim.Resources
	// MaxEngineRows bounds operator outputs during truth execution;
	// queries whose plans explode past it are skipped (0 = 2 million).
	MaxEngineRows int
	// Workers bounds the goroutines that parse, bind, plan, and execute
	// queries concurrently (0 = GOMAXPROCS, capped at 8; 1 = serial).
	// The collected records are bit-identical at any worker count.
	Workers int
	Seed    int64
	Sim     sparksim.Config
}

// DefaultCollectConfig returns the harness defaults (scaled down from the
// paper's 63K/50K records; see EXPERIMENTS.md).
func DefaultCollectConfig() CollectConfig {
	return CollectConfig{
		NumQueries:       400,
		PlansPerQuery:    3,
		ResStatesPerPlan: 3,
		Seed:             1,
		Sim:              sparksim.DefaultConfig(),
	}
}

// RandomResources draws a plausible allocation from the paper's resource
// grid: 1–8 executors, 1–4 cores, 1–14 GB, and varying throughputs.
func RandomResources(rng *rand.Rand) sparksim.Resources {
	return sparksim.Resources{
		Nodes:        4,
		CoresPerNode: 4,
		Executors:    1 + rng.Intn(8),
		ExecCores:    1 + rng.Intn(4),
		ExecMemMB:    float64(1+rng.Intn(14)) * 1024,
		NetMBps:      60 + float64(float64(rng.Intn(10))*100),
		DiskMBps:     80 + float64(float64(rng.Intn(8))*60),
		Dynamic:      rng.Float64() < 0.3,
	}
}

// planned is the per-query outcome of the parallel phase.
type planned struct {
	qs    string
	plans []*physical.Plan
	skip  bool
	err   error
}

// Collect generates queries, enumerates and executes their candidate
// plans, and prices each plan under the configured resource states.
//
// Collection runs in three phases so the dataset is bit-identical at any
// worker count: (1) query generation is sequential (it owns the
// generator's rng stream); (2) parse → bind → plan → truth-execute runs
// under a bounded worker pool — the expensive part, and safe because the
// streaming engine, the planner, and the cardinality estimator are all
// concurrency-clean; (3) resource draws and simulator pricing replay
// sequentially in query order, preserving the shared rng's consumption
// order exactly as the old serial loop did.
//
// Collect builds the statistics of db for this call alone (32 histogram
// buckets, 16 common values); a caller that collects more than once passes
// its own estimator to CollectWith instead.
func Collect(db *catalog.Database, gen *Generator, cfg CollectConfig) (*Dataset, error) {
	est, err := cardest.New(db, 32, 16)
	if err != nil {
		return nil, err
	}
	return CollectWith(est, gen, cfg)
}

// CollectWith is Collect over est's database, planned with est. It only
// reads est, so one estimator serves any number of calls, concurrent ones
// included.
func CollectWith(est *cardest.Estimator, gen *Generator, cfg CollectConfig) (*Dataset, error) {
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("workload: NumQueries must be positive")
	}
	if cfg.PlansPerQuery <= 0 {
		cfg.PlansPerQuery = 3
	}
	if cfg.ResStatesPerPlan <= 0 {
		cfg.ResStatesPerPlan = 1
	}
	db := est.DB()
	planner := physical.NewPlanner(est)
	eng := engine.New(db)
	eng.MaxRows = cfg.MaxEngineRows
	if eng.MaxRows == 0 {
		eng.MaxRows = 2_000_000
	}
	sim := sparksim.New(cfg.Sim)
	sim.Seed = cfg.Seed
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	// Phase 1: sequential query generation.
	queries := make([]string, cfg.NumQueries)
	for qi := range queries {
		queries[qi] = gen.GenerateOne()
	}

	// Phase 2: parallel plan + truth execution.
	results := make([]planned, cfg.NumQueries)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	if workers > cfg.NumQueries {
		workers = cfg.NumQueries
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range idx {
				results[qi] = planOne(db, planner, eng, queries[qi], cfg.PlansPerQuery)
			}
		}()
	}
	for qi := range queries {
		idx <- qi
	}
	close(idx)
	wg.Wait()

	// Phase 3: sequential pricing in query order (owns the shared rng).
	ds := &Dataset{DB: db, Est: est}
	for qi := range results {
		r := &results[qi]
		if r.err != nil {
			return nil, r.err
		}
		if r.skip {
			ds.Skipped++
			continue
		}
		for _, p := range r.plans {
			ds.Plans = append(ds.Plans, p)
			states := cfg.ResStatesPerPlan
			for s := 0; s < states; s++ {
				var res sparksim.Resources
				if cfg.FixedRes != nil {
					res = *cfg.FixedRes
					s = states // one state only
				} else {
					res = RandomResources(rng)
				}
				cost, err := sim.Estimate(p, res)
				if err != nil {
					return nil, err
				}
				ds.Records = append(ds.Records, Record{QueryID: qi, Plan: p, Res: res, CostSec: cost})
			}
		}
	}
	if len(ds.Records) == 0 {
		return nil, fmt.Errorf("workload: no records collected (%d queries skipped)", ds.Skipped)
	}
	return ds, nil
}

// planOne parses, binds, plans, and truth-executes one generated query.
func planOne(db *catalog.Database, planner *physical.Planner, eng *engine.Engine, qs string, plansPer int) planned {
	stmt, err := sql.Parse(qs)
	if err != nil {
		return planned{qs: qs, err: fmt.Errorf("workload: generated invalid SQL %q: %w", qs, err)}
	}
	bound, err := logical.NewBinder(db).Bind(stmt)
	if err != nil {
		return planned{qs: qs, skip: true}
	}
	plans, err := planner.Enumerate(bound)
	if err != nil {
		return planned{qs: qs, skip: true}
	}
	if len(plans) > plansPer {
		plans = plans[:plansPer]
	}
	// Execute all plans first so an exploding query is skipped whole.
	for _, p := range plans {
		if _, err := eng.Run(p); err != nil {
			if errors.Is(err, engine.ErrRowLimit) {
				return planned{qs: qs, skip: true}
			}
			return planned{qs: qs, err: fmt.Errorf("workload: executing %q: %w", qs, err)}
		}
	}
	return planned{qs: qs, plans: plans}
}

// FitEncoder fits a feature encoder on the dataset's plans.
func (d *Dataset) FitEncoder(cfg encode.Config) (*encode.Encoder, error) {
	return encode.Fit(d.Plans, cfg)
}

// Encode converts all records into training samples. Collect emits a
// plan's records together, so each run of records of one plan encodes the
// plan once and its samples share that plan part (encode.Sample.SamePlan),
// each with its own resource vector and label.
func (d *Dataset) Encode(enc *encode.Encoder) []*encode.Sample {
	out := make([]*encode.Sample, len(d.Records))
	var part *encode.Sample
	for i, r := range d.Records {
		if i == 0 || r.Plan != d.Records[i-1].Plan {
			part = enc.EncodePlanPart(r.Plan)
		}
		s := part.WithResource(enc.EncodeResources(r.Res))
		s.CostSec = r.CostSec
		out[i] = s
	}
	return out
}

// Split shuffles samples and splits them into train/test by trainFrac
// (the paper uses 80/20).
func Split(samples []*encode.Sample, trainFrac float64, seed int64) (train, test []*encode.Sample) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(samples)) * trainFrac)
	for i, j := range idx {
		if i < cut {
			train = append(train, samples[j])
		} else {
			test = append(test, samples[j])
		}
	}
	return train, test
}

// SplitRecords splits the raw records (useful when train/test must not
// share plans).
func (d *Dataset) SplitRecords(trainFrac float64, seed int64) (train, test []Record) {
	idx := make([]int, len(d.Records))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(idx)) * trainFrac)
	for i, j := range idx {
		if i < cut {
			train = append(train, d.Records[j])
		} else {
			test = append(test, d.Records[j])
		}
	}
	return train, test
}
