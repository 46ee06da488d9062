package raal

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"raal/internal/core"
)

// Warm serving calls allocate their answer and a constant number of
// per-call blocks, never one per row: the grid's and the candidates'
// samples are one block, their resource vectors another, and the forward
// pass takes its per-pass slices from the tape it runs on. A hot estimate
// is a one-row block on the same body; up to four rows keep their length
// hints on the stack.
const (
	maxRecommendAllocs = 5 // 60 or 120 rows
	maxSelectAllocs    = 4
	maxEstimateAllocs  = 4
)

// TestWarmServingAllocs pins the warm allocation counts of the serving
// APIs at GOMAXPROCS 2 with the encode cache on: RecommendResourcesCtx over
// the default grid and over twice its rows (the count must not grow with
// the grid), SelectPlanCtx over three candidates, and a hot EstimateCtx.
func TestWarmServingAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	enc, plans := corpusPlans(t, IMDB, 0.03, 3)
	cm := &CostModel{enc: enc, model: core.NewModel(RAAL(), encoderConfig(enc))}
	cm.EnableEncodeCache(16)
	ctx := context.Background()
	grid := DefaultResourceGrid()
	res := DefaultResources()

	measure := func(what string, limit float64, op func() error) float64 {
		t.Helper()
		for range 3 { // fill the cache, the memo and the pooled tapes
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		got := allocsPerRun(50, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", what, got)
		if got > limit {
			t.Errorf("warm %s made %.0f allocations, want at most %.0f", what, got, limit)
		}
		return got
	}
	var rows [2]float64
	for i, g := range [][]Resources{grid, append(grid[:len(grid):len(grid)], grid...)} {
		rows[i] = measure(fmt.Sprintf("RecommendResourcesCtx over %d allocations", len(g)), maxRecommendAllocs, func() error {
			_, _, err := cm.RecommendResourcesCtx(ctx, plans[0], g)
			return err
		})
	}
	if rows[1] != rows[0] {
		t.Errorf("RecommendResourcesCtx made %.0f allocations over %d rows but %.0f over %d", rows[0], len(grid), rows[1], 2*len(grid))
	}
	measure("SelectPlanCtx over 3 candidates", maxSelectAllocs, func() error {
		_, _, err := cm.SelectPlanCtx(ctx, plans, res)
		return err
	})
	measure("EstimateCtx", maxEstimateAllocs, func() error {
		_, err := cm.EstimateCtx(ctx, plans[1], res)
		return err
	})
}

// allocsPerRun is testing.AllocsPerRun at the caller's GOMAXPROCS, which
// AllocsPerRun sets to 1 while it measures: the mallocs of runs calls of
// f, after one warm-up call, divided by runs in integer arithmetic.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
