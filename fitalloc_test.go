package raal

import (
	"os"
	"os/exec"
	"runtime"
	"testing"

	"raal/internal/core"
	"raal/internal/encode"
)

// fitAllocChild marks the process TestFitAllocBytes starts to measure in.
const fitAllocChild = "RAAL_FIT_ALLOC_CHILD"

// TestFitAllocBytes holds cm.fit, the body of TrainCostModel, to the
// memory it allocates (runtime.MemStats.TotalAlloc) on corpus 1003 of the
// offline collect-and-train benchmark op: 12 queries, 3 plans each priced
// under 3 allocations, 3 epochs. The first fit in a process builds its
// tapes and may allocate 14 MB; each later fit of a fresh model trains and
// evaluates on the tapes the earlier fits warmed and may allocate 6 MB.
// A cold first fit needs a process whose tape pools are empty, so the
// test runs itself again in a child process and measures there.
func TestFitAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a system and trains three models")
	}
	if os.Getenv(fitAllocChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFitAllocBytes$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), fitAllocChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("measuring process: %v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}

	sys, err := Open(IMDB, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sys.Collect(CollectOptions{NumQueries: 12, PlansPerQuery: 3, ResStatesPerPlan: 3, Seed: 1003})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mc := encoderConfig(enc)
	mc.Seed = 1
	for i, limit := range []uint64{14 << 20, 6 << 20, 6 << 20} {
		cm := &CostModel{enc: enc, model: core.NewModel(RAAL(), mc)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cm.fit(core.NewTrainState(), ds, TrainOptions{Epochs: 3}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("fit %d allocated %.2f MB", i+1, float64(got)/(1<<20))
		if got > limit {
			t.Errorf("fit %d allocated %d bytes, want at most %d", i+1, got, limit)
		}
	}
}
