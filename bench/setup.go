package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"raal"
	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/core"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/telemetry"
	corpus "raal/internal/workload"
)

// Data and model seeds never change, so a run's held-out error is
// reproducible; the -seed flag drives only which queries are generated and
// the order clients draw them in.
const fixedSeed = 1

// encodeCacheSize is raalserve's default -encode-cache.
const encodeCacheSize = 256

// params sizes a run. full is what BENCHMARK.json measures; bench_test.go
// drives the same code at a tiny size.
type params struct {
	scale float64 // synthetic IMDB scale factor

	// Served model, rebuilt from scratch in every set-up so a numerics
	// change cannot hide behind a stale model file.
	corpusQueries, corpusEpochs int
	// setups is how many times a run sets up; setup_s is their median.
	setups int

	hotSet      int // route_estimate_hot: distinct queries in the hot set
	selectPool  int // select_sql_cold: distinct generated queries
	advisePlans int // advise_grid: pre-planned plans
	// oversample is how many queries are generated per query kept, per
	// workload (see substrate.queries).
	oversample map[string]int

	// offline_collect_train: one op collects offQueries queries and
	// trains offEpochs epochs; ops cycle through offCorpora corpus seeds.
	offQueries, offEpochs, offCorpora int

	// Ops per measurement window (all clients together), warm-up ops, and
	// the cap on traced ops, per workload.
	window, warmup, traced map[string]int

	checkEvery int // select/advise: recompute one op in checkEvery after the run
	probeN     int // inputs per layer probe
}

// The issue sized the served model at 120 queries x 6 epochs (about 6.6 s
// here) and one set-up per run. The driver's contract wants set-up repeated
// within a run and all 92 runs inside 57 minutes, so the corpus and epochs
// are halved (about 2.4 s) and set-up runs three times. advise_grid warms up
// with 20 ops, not 200: at about 20 ms an op, 200 would be 4 s per set-up.
// Windows are sized to last 50-70 ms, which with the 10 ms probe after each
// leaves six sevenths of the run to ops. offline_collect_train's windows are
// one op, so its op is a 12-query corpus, not the issue's 40 (0.35 s, not
// 1.6 s): over 1.6 s the probes on either side of a window no longer say how
// fast the machine was during it, and nothing else steadied that workload.
var full = params{
	scale:         0.05,
	corpusQueries: 60,
	corpusEpochs:  3,
	setups:        3,
	hotSet:        64,
	selectPool:    4096,
	advisePlans:   512,
	oversample:    map[string]int{wlRoute: 64, wlSelect: 1, wlAdvise: 4},
	offQueries:    12,
	offEpochs:     3,
	offCorpora:    4,
	window: map[string]int{
		wlRoute: 100, wlSelect: 50, wlAdvise: 3, wlOffline: 1,
	},
	warmup: map[string]int{
		wlRoute: 200, wlSelect: 200, wlAdvise: 20, wlOffline: 1,
	},
	traced: map[string]int{
		wlRoute: 2800, wlSelect: 2200, wlAdvise: 120, wlOffline: 16,
	},
	checkEvery: 32,
	probeN:     64,
}

// substrate is the benchmark's own copy of what raal.Open wires up, built
// from the same generator and seed. The program's copy is private to
// raal.System; this one lets the benchmark generate queries against live
// value ranges and time parse, bind and enumerate one by one.
type substrate struct {
	db      *catalog.Database
	binder  *logical.Binder
	planner *physical.Planner
	// sizer is planner without the cap of six candidates. How many plans
	// Enumerate builds before it cuts the list (one to three join orders,
	// five variants of each) sets its cost, and only the uncut list shows it.
	sizer *physical.Planner
}

func newSubstrate(scale float64) (*substrate, error) {
	db := datagen.IMDB(scale, fixedSeed)
	est, err := cardest.New(db, 32, 16)
	if err != nil {
		return nil, err
	}
	sizer := physical.NewPlanner(est)
	sizer.MaxPlans = math.MaxInt
	return &substrate{db: db, binder: logical.NewBinder(db), planner: physical.NewPlanner(est), sizer: sizer}, nil
}

// size orders queries by how much work they are: the default plan's length
// sets encode and forward cost, the total length of every candidate the
// planner builds sets planning cost, and the text's length (predicates) breaks
// ties. It reports false for a query that does not plan.
func (s *substrate) size(query string) ([3]int, bool) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return [3]int{}, false
	}
	bound, err := s.binder.Bind(stmt)
	if err != nil {
		return [3]int{}, false
	}
	plans, err := s.sizer.Enumerate(bound)
	if err != nil || len(plans) == 0 {
		return [3]int{}, false
	}
	built := 0
	for _, p := range plans {
		built += len(p.Nodes)
	}
	return [3]int{len(plans[0].Nodes), built, len(query)}, true
}

// plan is raal.System.Plan with a span around each layer.
func (s *substrate) plan(rec *recorder, parent, query string) ([]*physical.Plan, error) {
	var (
		stmt  *sql.SelectStmt
		bound *logical.Query
		plans []*physical.Plan
		err   error
	)
	rec.time("sql.parse", parent, func() int { stmt, err = sql.Parse(query); return 0 })
	if err != nil {
		return nil, err
	}
	rec.time("logical.bind", parent, func() int { bound, err = s.binder.Bind(stmt); return 0 })
	if err != nil {
		return nil, err
	}
	rec.time("physical.enumerate", parent, func() int { plans, err = s.planner.Enumerate(bound); return len(plans) })
	return plans, err
}

// queries generates n distinct queries that plan, from seed, ordered by size.
// It generates oversample times as many and keeps every oversample-th in that
// order, so the kept queries follow the generator's size distribution closely
// whatever the seed: drawn blindly from 0-5 join queries, one seed's hot
// queries would be mostly scans and another's mostly five-way joins, and
// every metric would follow the seed, not the program. What is left is the
// generated sample's own wobble, which is why the hot set is 64 of 4096: with
// 16 of 512, allocs_per_op still spread 4-6% across seeds.
func (s *substrate) queries(seed int64, n, oversample int) ([]string, error) {
	gen, err := corpus.NewIMDBGenerator(s.db, seed)
	if err != nil {
		return nil, err
	}
	type sized struct {
		q    string
		size [3]int
	}
	want := n * oversample
	seen := make(map[string]bool, want)
	all := make([]sized, 0, want)
	for tries := 0; len(all) < want; tries++ {
		if tries > 20*want {
			return nil, fmt.Errorf("generator gave only %d distinct plannable queries in %d tries", len(all), tries)
		}
		q := gen.GenerateOne()
		if seen[q] {
			continue
		}
		seen[q] = true
		if size, ok := s.size(q); ok {
			all = append(all, sized{q, size})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return slices.Compare(all[i].size[:], all[j].size[:]) < 0 })
	out := make([]string, n)
	for i := range out {
		out[i] = all[(2*i+1)*len(all)/(2*n)].q
	}
	return out, nil
}

// served is a model set up the way raalserve serves one.
type served struct {
	sys    *raal.System
	cm     *raal.CostModel
	report *raal.TrainReport
	reg    *telemetry.Registry
}

func newServed(p params) (*served, error) {
	sys, err := raal.Open(raal.IMDB, p.scale, fixedSeed)
	if err != nil {
		return nil, err
	}
	ds, err := sys.Collect(raal.CollectOptions{NumQueries: p.corpusQueries, ResStatesPerPlan: 3})
	if err != nil {
		return nil, err
	}
	cm, report, err := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: p.corpusEpochs})
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	cm.Instrument(reg)
	cm.EnableEncodeCache(encodeCacheSize)
	return &served{sys: sys, cm: cm, report: report, reg: reg}, nil
}

// cacheCounts reads the encode cache's hit and miss counters (registration
// is get-or-create, so this returns the counters Instrument registered).
func (s *served) cacheCounts() (hits, misses uint64) {
	return s.reg.NewCounter("raal_encode_cache_hits_total", "").Value(),
		s.reg.NewCounter("raal_encode_cache_misses_total", "").Value()
}

// pipeline is what System.Collect followed by TrainCostModel does, called
// layer by layer so each stage can be timed. Seeds and configs are the
// defaults those two apply, so for the same corpus it yields the same
// encoder and weights, which prepareTrace checks through the held-out error.
type pipeline struct {
	ds     *corpus.Dataset
	enc    *encode.Encoder
	model  *core.Model
	heldRE float64
}

func runPipeline(rec *recorder, parent string, db *catalog.Database, queries, epochs int, corpusSeed int64) (*pipeline, error) {
	cfg := corpus.DefaultCollectConfig()
	cfg.NumQueries, cfg.PlansPerQuery, cfg.ResStatesPerPlan, cfg.Seed = queries, 3, 3, corpusSeed
	gen, err := corpus.NewIMDBGenerator(db, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := &pipeline{}
	rec.time("workload.collect", parent, func() int {
		if out.ds, err = corpus.Collect(db, gen, cfg); err != nil {
			return 0
		}
		return len(out.ds.Records)
	})
	if err != nil {
		return nil, err
	}
	rec.time("encode.fit", parent, func() int {
		out.enc, err = out.ds.FitEncoder(encode.DefaultConfig())
		return len(out.ds.Plans)
	})
	if err != nil {
		return nil, err
	}
	var train, test []*encode.Sample
	rec.time("encode.dataset", parent, func() int {
		train, test = corpus.Split(out.ds.Encode(out.enc), 0.8, fixedSeed)
		return len(train) + len(test)
	})
	if len(train) == 0 || len(test) == 0 {
		return nil, fmt.Errorf("corpus of %d records leaves an empty split", len(out.ds.Records))
	}

	mc := core.DefaultConfig(out.enc.NodeDim()-out.enc.MaxNodes()-2, out.enc.MaxNodes())
	mc.Seed = fixedSeed
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.Seed, tc.State = epochs, fixedSeed, core.NewTrainState()
	rec.time("core.train", parent, func() int {
		out.model, _, err = core.Train(train, core.RAAL(), mc, tc)
		return len(train) * epochs
	})
	if err != nil {
		return nil, err
	}
	rec.time("core.eval", parent, func() int {
		held, e := out.model.Evaluate(test)
		out.heldRE, err = held.RE, e
		return len(test)
	})
	return out, err
}
