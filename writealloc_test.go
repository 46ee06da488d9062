package raal

import (
	"runtime"
	"testing"
)

// maxWriteSideAllocs bounds the mallocs of one warm write-side op, the
// offline collect-and-train benchmark's: System.Collect of 12 queries ×
// 3 plans × 3 allocations (IMDB at scale 0.05, corpus seed 1003), then
// TrainCostModel for 3 epochs. The op measures 6,200–6,234 at GOMAXPROCS
// 2, and made 15,078–15,088 while the corpus build allocated per token,
// the simulator per priced stage and the slab pool per put.
const maxWriteSideAllocs = 6400

// TestWriteSideAllocs pins the allocations of the write side, which
// allocates per plan, not per token, stage or pooled slab (DESIGN §5ab).
// The per-layer pins are
// sparksim.TestEstimateAllocatesNothing, engine.TestSlabPoolReusesBoxes
// and encode.TestCorpusAllocs.
func TestWriteSideAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a system and trains two models")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops slabs at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys, err := Open(IMDB, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := allocsPerRun(3, func() {
		ds, err := sys.Collect(CollectOptions{NumQueries: 12, PlansPerQuery: 3, ResStatesPerPlan: 3, Seed: 1003})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := TrainCostModel(ds, RAAL(), TrainOptions{Epochs: 3}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("write-side op: %.0f allocs", got)
	if got > maxWriteSideAllocs {
		t.Errorf("write-side op made %.0f allocations, want at most %d", got, maxWriteSideAllocs)
	}
}
