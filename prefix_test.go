package raal

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/telemetry"
)

// corpusPlans collects a small corpus on bench and returns an encoder
// fitted on it plus n of its distinct executed plans, spread over the
// corpus so several plan lengths are covered.
func corpusPlans(t *testing.T, bench Benchmark, scale float64, n int) (*encode.Encoder, []*Plan) {
	t.Helper()
	sys, err := Open(bench, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sys.Collect(CollectOptions{NumQueries: 24, ResStatesPerPlan: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Plans) < n {
		t.Fatalf("%s corpus has %d plans, want at least %d", bench, len(ds.Plans), n)
	}
	plans := make([]*Plan, n)
	for i := range plans {
		plans[i] = ds.Plans[i*len(ds.Plans)/n]
	}
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return enc, plans
}

// alone prices one (plan, allocation) pair from a freshly encoded sample:
// no cache, no shared plan part, nothing to reuse.
func alone(cm *CostModel, p *Plan, res Resources) float64 {
	preds, _ := cm.model.PredictCtx(context.Background(), []*Sample{cm.enc.EncodePlan(p, res)}, PredictOpts{})
	return preds[0]
}

// freshModel is an untrained, narrow cost model of variant v over enc's
// feature space: random weights exercise every layer as well as trained
// ones, and narrow layers keep the property test affordable under -race.
func freshModel(enc *encode.Encoder, v Variant) *CostModel {
	mc := core.DefaultConfig(enc.NodeDim()-enc.MaxNodes()-2, enc.MaxNodes())
	mc.Hidden, mc.K = 16, 8
	return &CostModel{enc: enc, model: core.NewModel(v, mc)}
}

// TestRecommendMatchesUnsplitOracle is the split's property test: over the
// IMDB and TPC-H corpora, the default grid and every variant, pricing one
// plan under the whole grid — one shared plan
// prefix, sixty suffix rows — equals, bit for bit, pricing each (plan,
// allocation) pair alone from a freshly encoded sample, which shares
// nothing and is what the unsplit forward computed. The recommendation is
// the oracle's argmin. (core's TestGridPredictAcrossChunks holds the grid
// to the same bits at other worker counts and chunk sizes, including
// chunks that cut it.)
func TestRecommendMatchesUnsplitOracle(t *testing.T) {
	grid := DefaultResourceGrid()
	var variants []Variant
	for _, v := range core.AllVariants() {
		variants = append(variants, v, v.WithoutResources())
	}
	for _, bench := range []struct {
		name  Benchmark
		scale float64
	}{{IMDB, 0.03}, {TPCH, 0.05}} {
		enc, plans := corpusPlans(t, bench.name, bench.scale, 3)
		for _, v := range variants {
			cm := freshModel(enc, v)
			for pi, p := range plans {
				oracle := make([]float64, len(grid))
				for i, res := range grid {
					oracle[i] = alone(cm, p, res)
				}
				best := metrics.ArgminFinite(oracle)
				same := make([]*Plan, len(grid))
				for i := range same {
					same[i] = p
				}
				recommend := func(how string) {
					res, cost, err := cm.RecommendResourcesCtx(context.Background(), p, grid)
					if err != nil || res != grid[best] || math.Float64bits(cost) != math.Float64bits(oracle[best]) {
						t.Fatalf("%s %s plan %d, %s: recommended (%v, %v, %v), oracle (%v, %v)",
							bench.name, v.Name, pi, how, res, cost, err, grid[best], oracle[best])
					}
				}
				// Without a cache the grid rows share one fresh plan
				// part: one prefix, nothing kept.
				cm.EnableEncodeCache(0)
				recommend("no cache")
				// With one, every row is a hit on the same entry, and
				// after the first call the prefix comes from its memo.
				cm.EnableEncodeCache(4)
				each, err := cm.EstimateEachCtx(context.Background(), same, grid, PredictOpts{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range oracle {
					if math.Float64bits(each[i]) != math.Float64bits(oracle[i]) {
						t.Fatalf("%s %s plan %d: allocation %d priced %v with a shared prefix, %v alone",
							bench.name, v.Name, pi, i, each[i], oracle[i])
					}
				}
				recommend("cached")
			}
		}
	}
}

// TestRecommendLargeGridAndCancellation covers a grid larger than one
// chunk (200 allocations: four default chunks, each computing the prefix
// for itself) and a context cancelled between chunks.
func TestRecommendLargeGridAndCancellation(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	var grid []Resources
	for i := 0; i < 200; i++ {
		r := DefaultResources()
		r.Executors = 1 + i%8
		r.ExecMemMB = float64(512 * (1 + i/8))
		grid = append(grid, r)
	}
	oracle := make([]float64, len(grid))
	for i, res := range grid {
		oracle[i] = cm.Estimate(p, res)
	}
	best := metrics.ArgminFinite(oracle)
	for _, cache := range []int{0, 8} {
		cm.EnableEncodeCache(cache)
		res, cost, err := cm.RecommendResourcesCtx(context.Background(), p, grid)
		if err != nil {
			t.Fatal(err)
		}
		if res != grid[best] || cost != oracle[best] {
			t.Fatalf("cache %d: recommended (%v, %v) over 200 allocations, oracle (%v, %v)", cache, res, cost, grid[best], oracle[best])
		}
	}
	cm.EnableEncodeCache(0)

	ctx := &cancelAfter{Context: context.Background(), calls: 3} // live for the entry check and two chunk claims
	if _, _, err := cm.RecommendResourcesCtx(ctx, p, grid); !errors.Is(err, context.Canceled) {
		t.Fatalf("a context cancelled mid-grid returned %v, want context.Canceled", err)
	}
}

// cancelAfter is a context whose Err turns context.Canceled after the
// given number of Err calls — a deterministic mid-batch cancellation.
type cancelAfter struct {
	context.Context
	mu    sync.Mutex
	calls int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// TestRankingSkipsNonFinite poisons the output bias, so every prediction
// is NaN (or +Inf): the Ctx variants must refuse to pick a winner, the
// plain ones must say +Inf, and ArgminFinite must neither let a leading
// NaN win nor let an interior one hide the minimum.
func TestRankingSkipsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		want int
	}{
		{[]float64{nan, 3, 2}, 2},
		{[]float64{3, nan, 2, inf}, 2},
		{[]float64{inf, 5, 5}, 1},
		{[]float64{nan, inf, math.Inf(-1)}, -1},
		{nil, -1},
	} {
		if got := metrics.ArgminFinite(c.xs); got != c.want {
			t.Errorf("ArgminFinite(%v) = %d, want %d", c.xs, got, c.want)
		}
	}

	sys, _, shared := sharedSystem(t)
	const query = `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`
	plans, err := sys.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()[:5]
	for name, poison := range map[string]float64{"NaN": nan, "+Inf": inf} {
		cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
		params := cm.model.Params()
		params[len(params)-1].Value().Data[0] = poison // the linear output layer's bias

		if _, _, err := cm.SelectPlanCtx(context.Background(), plans, DefaultResources()); !errors.Is(err, errNoFinite) {
			t.Errorf("%s: SelectPlanCtx returned %v, want errNoFinite", name, err)
		}
		if _, _, err := cm.RecommendResourcesCtx(context.Background(), plans[0], grid); !errors.Is(err, errNoFinite) {
			t.Errorf("%s: RecommendResourcesCtx returned %v, want errNoFinite", name, err)
		}
		// System.SelectPlan passes the refusal on instead of picking the
		// first candidate at +Inf.
		if p, cost, err := sys.SelectPlan(cm, query, DefaultResources()); !errors.Is(err, errNoFinite) {
			t.Errorf("%s: System.SelectPlan = (%v, %v, %v), want errNoFinite", name, p, cost, err)
		}
	}
}

// probeAll prices a fixed mix through every estimation API and returns
// the numbers in one slice, so two models (or one model in two cache
// states) can be compared bit for bit.
func probeAll(t *testing.T, cm *CostModel, plans []*Plan, grid []Resources) []float64 {
	t.Helper()
	res := DefaultResources()
	out := []float64{cm.Estimate(plans[0], res), cm.Estimate(plans[0], grid[3])}
	// Mixed plans and allocations in one batch, plans repeating.
	var eachPlans []*Plan
	var eachRes []Resources
	for i, r := range grid {
		eachPlans = append(eachPlans, plans[i%len(plans)])
		eachRes = append(eachRes, r)
	}
	each, err := cm.EstimateEachCtx(context.Background(), eachPlans, eachRes, PredictOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, each...)
	out = append(out, cm.EstimateBatch(plans, res)...)
	_, cost, err := cm.SelectPlanCtx(context.Background(), plans, res)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, cost)
	rec, cost, err := cm.RecommendResourcesCtx(context.Background(), plans[0], grid)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, cost, float64(rec.Executors), float64(rec.ExecCores), rec.ExecMemMB)
}

func mustEqualBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestCachedPrefixInvalidation changes a CostModel's weights under a live
// cache — an in-place ResumeCostModel — and compares every estimation API
// against a fresh model with the same weights and no cache, bit for bit,
// before and after. A prefix memoized before the change must never be
// served after it. (The other way, an online promotion or rollback, swaps
// the *Net and is covered by the hot-swap soak in internal/online.)
func TestCachedPrefixInvalidation(t *testing.T) {
	sys, ds, shared := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()[:12]
	cacheless := func(cm *CostModel) *CostModel {
		return &CostModel{enc: cm.enc, model: cm.model.Clone()}
	}

	cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	reg := NewMetricsRegistry()
	cm.Instrument(reg)
	cm.EnableEncodeCache(64)
	before := probeAll(t, cm, plans, grid) // fills the cache and every entry's prefix
	mustEqualBits(t, "warm cache vs no cache", probeAll(t, cm, plans, grid), probeAll(t, cacheless(cm), plans, grid))
	if cm.instr.PrefixReused.Value() == 0 {
		t.Fatal("the warm pass reused no prefix: the test is not exercising the memo")
	}

	// 1. ResumeCostModel trains cm.model in place.
	st := core.NewTrainState()
	if _, err := ResumeCostModel(cm, st, ds, TrainOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	after := probeAll(t, cm, plans, grid)
	mustEqualBits(t, "after ResumeCostModel", after, probeAll(t, cacheless(cm), plans, grid))
	if after[0] == before[0] {
		t.Fatal("an epoch of training left the estimate unchanged: stale prefixes would go unnoticed")
	}
}

// TestEncodeCacheConcurrentAPIs hammers one cached model from several
// goroutines through EstimateCtx, RecommendResourcesCtx and
// EstimateEachCtx at once — shared cache entries, shared memo slots — and
// checks every answer against the serial one. Run under `make race`.
func TestEncodeCacheConcurrentAPIs(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()[:16]
	cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	want := probeAll(t, cm, plans, grid)
	cm.EnableEncodeCache(2) // smaller than the plan set: entries are evicted while in use

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := plans[(g+i)%len(plans)]
				switch g % 3 {
				case 0:
					got, err := cm.EstimateCtx(ctx, p, grid[i%len(grid)])
					if want := alone(cm, p, grid[i%len(grid)]); err != nil || got != want {
						t.Errorf("EstimateCtx = (%v, %v), want %v", got, err, want)
					}
				case 1:
					if _, _, err := cm.RecommendResourcesCtx(ctx, p, grid); err != nil {
						t.Error(err)
					}
				default:
					same := make([]*Plan, len(grid))
					for j := range same {
						same[j] = p
					}
					if _, err := cm.EstimateEachCtx(ctx, same, grid, PredictOpts{}); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	mustEqualBits(t, "after the concurrent run", probeAll(t, cm, plans, grid), want)
}

// TestEstimateCtxSpanShowsPrefixReuse: the first traced estimate of a
// cached plan runs the recurrence; the second shows a prefix-reuse stage in
// its place, and the raal_prefix_* counters tell the two apart.
func TestEstimateCtxSpanShowsPrefixReuse(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	cm.Instrument(NewMetricsRegistry())
	cm.EnableEncodeCache(4)

	traced := func(res Resources) (float64, map[string]bool) {
		sp := telemetry.StartSpan("estimate")
		cost, err := cm.EstimateCtx(telemetry.WithSpan(context.Background(), sp), plans[0], res)
		if err != nil {
			t.Fatal(err)
		}
		sp.End()
		m := map[string]bool{}
		for _, st := range sp.Stages() {
			m[st.Name] = true
		}
		return cost, m
	}
	cold, st := traced(DefaultResources())
	if !st["encode"] || !st["lstm"] || st["prefix-reuse"] {
		t.Fatalf("cold trace should encode, run the recurrence and reuse nothing: %v", st)
	}
	res2 := DefaultResources()
	res2.Executors = 8
	_, st = traced(res2) // a new allocation of a cached plan
	if st["lstm"] || st["embed"] || !st["prefix-reuse"] || !st["attention"] || !st["dense"] {
		t.Fatalf("warm trace should show prefix-reuse in place of embed and lstm: %v", st)
	}
	if warm, _ := traced(DefaultResources()); warm != cold {
		t.Fatalf("estimate from a reused prefix %v != cold %v", warm, cold)
	}
	if c, r := cm.instr.PrefixComputed.Value(), cm.instr.PrefixReused.Value(); c != 1 || r != 2 {
		t.Fatalf("raal_prefix_computed_total = %d, raal_prefix_reused_total = %d, want 1 and 2", c, r)
	}
}
