package raal

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"raal/internal/telemetry"
	"raal/internal/workload"
)

// candidateMix plans a few queries of different shapes and returns all of
// their candidates, so a batch holds plans of many lengths, with its first
// candidate repeated at the end: two rows that share one cached plan part.
func candidateMix(t *testing.T, sys *System) []*Plan {
	t.Helper()
	var plans []*Plan
	for _, q := range []string{
		`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`,
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`,
		`SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk WHERE t.id = mc.movie_id AND t.id = mk.movie_id`,
	} {
		ps, err := sys.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, ps...)
	}
	return append(plans, plans[0])
}

// TestMultiPlanAPIsMatchEstimateCtx: SelectPlanCtx, EstimateBatchCtx and
// EstimateEachCtx encode each candidate on the predict worker that scores
// it, grouped by node count. Every price equals the plan's EstimateCtx
// alone, bit for bit, with the encode cache off and on and on one and two
// schedulable goroutines, and the selection is the argmin of those prices.
func TestMultiPlanAPIsMatchEstimateCtx(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	plans := candidateMix(t, sys)
	ctx := context.Background()
	res := DefaultResources()
	each := make([]Resources, len(plans))
	for i := range each {
		each[i] = res
		each[i].Executors = 1 + i%4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, cacheSize := range []int{0, 64} {
			cm := &CostModel{enc: shared.enc, model: shared.model}
			cm.EnableEncodeCache(cacheSize)
			batch, err := cm.EstimateBatchCtx(ctx, plans, res, PredictOpts{})
			if err != nil {
				t.Fatal(err)
			}
			priced, err := cm.EstimateEachCtx(ctx, plans, each, PredictOpts{})
			if err != nil {
				t.Fatal(err)
			}
			best, bestCost, err := cm.SelectPlanCtx(ctx, plans, res)
			if err != nil {
				t.Fatal(err)
			}
			argmin := 0
			for i, p := range plans {
				alone, _ := cm.EstimateCtx(ctx, p, res)
				aloneEach, _ := cm.EstimateCtx(ctx, p, each[i])
				if math.Float64bits(batch[i]) != math.Float64bits(alone) || math.Float64bits(priced[i]) != math.Float64bits(aloneEach) {
					t.Fatalf("GOMAXPROCS %d, cache %d, plan %d (%d nodes): batch %v each %v, alone %v and %v",
						procs, cacheSize, i, len(p.Nodes), batch[i], priced[i], alone, aloneEach)
				}
				if alone < batch[argmin] {
					argmin = i
				}
			}
			if best != plans[argmin] || math.Float64bits(bestCost) != math.Float64bits(batch[argmin]) {
				t.Fatalf("GOMAXPROCS %d, cache %d: SelectPlanCtx picked %p at %v, argmin is plan %d at %v",
					procs, cacheSize, best, bestCost, argmin, batch[argmin])
			}
		}
	}
}

// TestSelectPlanObservesOnePredict: a SelectPlanCtx call is one request to
// the model's metrics: one latency observation, one rows add of its
// candidate count, and occupancy by each candidate's node count.
func TestSelectPlanObservesOnePredict(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	plans := candidateMix(t, sys)
	cm := freshModel(shared.enc, RAAL())
	reg := telemetry.NewRegistry()
	cm.Instrument(reg)
	if _, _, err := cm.SelectPlanCtx(context.Background(), plans, DefaultResources()); err != nil {
		t.Fatal(err)
	}
	ins := cm.instr
	if n := ins.PredictLatency.Count(); n != 1 {
		t.Errorf("predict latency observations = %d, want 1", n)
	}
	if got := ins.PredictRows.Value(); got != uint64(len(plans)) {
		t.Errorf("predict rows = %d, want %d", got, len(plans))
	}
	// Every candidate lands in the occupancy band of its node count, in
	// core's labels.
	bands := []struct {
		hi   int
		name string
	}{{2, "1-2"}, {4, "3-4"}, {8, "5-8"}, {16, "9-16"}, {32, "17-32"}, {math.MaxInt, "33+"}}
	want := map[string]uint64{}
	for _, p := range plans {
		n := min(len(p.Nodes), shared.enc.MaxNodes())
		for _, b := range bands {
			if n <= b.hi {
				want[b.name]++
				break
			}
		}
	}
	for _, b := range bands {
		if v := ins.BucketOccupancy.With(b.name).Value(); v != want[b.name] {
			t.Errorf("occupancy band %s = %d, want %d", b.name, v, want[b.name])
		}
	}
}

// BenchmarkSelectPlanFanOut is the verdict on fanning one request out over
// the predict workers: SelectPlanCtx over pre-planned top-3 candidate
// sets of generated IMDB queries, at 1, 2 and 4 concurrent callers.
// "fanout" is the default schedule: each candidate is encoded and scored by
// a predict worker, longest first. "serial" prices the same candidates on
// the caller's goroutine alone, one EstimateCtx each (a one-chunk call
// runs inline), which is the one-worker schedule's work plus two more
// predict calls' bookkeeping. ns/op is wall time over all callers' ops.
func BenchmarkSelectPlanFanOut(b *testing.B) {
	sys, _, cm := sharedSystem(b)
	gen, err := workload.NewIMDBGenerator(sys.db, 5)
	if err != nil {
		b.Fatal(err)
	}
	var sets [][]*Plan
	for len(sets) < 256 {
		plans, err := sys.Plan(gen.GenerateOne())
		if err != nil || len(plans) == 0 {
			continue
		}
		sets = append(sets, plans[:min(len(plans), 3)])
	}
	ctx, res := context.Background(), DefaultResources()
	serial := func(plans []*Plan) error {
		best := math.Inf(1)
		for _, p := range plans {
			c, err := cm.EstimateCtx(ctx, p, res)
			if err != nil {
				return err
			}
			best = math.Min(best, c)
		}
		return nil
	}
	fanout := func(plans []*Plan) error {
		_, _, err := cm.SelectPlanCtx(ctx, plans, res)
		return err
	}
	for _, callers := range []int{1, 2, 4} {
		for _, mode := range []struct {
			name string
			op   func([]*Plan) error
		}{{"fanout", fanout}, {"serial", serial}} {
			b.Run(fmt.Sprintf("callers=%d/%s", callers, mode.name), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := int(next.Add(1)) - 1; k < b.N; k = int(next.Add(1)) - 1 {
							if err := mode.op(sets[k%len(sets)]); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
