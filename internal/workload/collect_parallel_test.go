package workload

import (
	"testing"

	"raal/internal/cardest"
	"raal/internal/datagen"
	"raal/internal/sparksim"
)

// collectWith runs Collect over a fresh generator at the given worker
// count. Generators are stateful (they own an rng stream), so each run
// gets its own; the catalog is shared read-only.
func collectWith(t *testing.T, workers int) *Dataset {
	t.Helper()
	db := datagen.IMDB(0.02, 1)
	g, err := NewIMDBGenerator(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCollectConfig()
	cfg.NumQueries = 40
	cfg.ResStatesPerPlan = 2
	cfg.Workers = workers
	ds, err := Collect(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCollectWorkerCountInvariant is the contract the three-phase design
// exists to uphold: the collected dataset is bit-identical at any worker
// count. Query generation and resource/pricing draws stay sequential, so
// parallelism in the plan-execution phase must never leak into records.
func TestCollectWorkerCountInvariant(t *testing.T) {
	serial := collectWith(t, 1)
	for _, workers := range []int{2, 8} {
		par := collectWith(t, workers)
		if par.Skipped != serial.Skipped {
			t.Fatalf("workers=%d: Skipped %d != serial %d", workers, par.Skipped, serial.Skipped)
		}
		if len(par.Plans) != len(serial.Plans) {
			t.Fatalf("workers=%d: %d plans != serial %d", workers, len(par.Plans), len(serial.Plans))
		}
		for i := range par.Plans {
			if par.Plans[i].Sig != serial.Plans[i].Sig {
				t.Fatalf("workers=%d plan %d: sig %q != serial %q",
					workers, i, par.Plans[i].Sig, serial.Plans[i].Sig)
			}
		}
		if len(par.Records) != len(serial.Records) {
			t.Fatalf("workers=%d: %d records != serial %d", workers, len(par.Records), len(serial.Records))
		}
		for i := range par.Records {
			a, b := par.Records[i], serial.Records[i]
			if a.QueryID != b.QueryID || a.Plan.Sig != b.Plan.Sig ||
				a.Res != b.Res || a.CostSec != b.CostSec {
				t.Fatalf("workers=%d record %d differs:\n  parallel %+v (plan %s)\n  serial   %+v (plan %s)",
					workers, i, a, a.Plan.Sig, b, b.Plan.Sig)
			}
		}
	}
}

// TestCollectWorkerCountInvariantFixedRes covers the FixedRes branch,
// which consumes no rng draws in the pricing phase.
func TestCollectWorkerCountInvariantFixedRes(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	fixed := &sparksim.Resources{
		Nodes: 4, CoresPerNode: 4, Executors: 4, ExecCores: 2,
		ExecMemMB: 4096, NetMBps: 200, DiskMBps: 150,
	}
	run := func(workers int) *Dataset {
		g, err := NewIMDBGenerator(db, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultCollectConfig()
		cfg.NumQueries = 24
		cfg.FixedRes = fixed
		cfg.Workers = workers
		ds, err := Collect(db, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	serial, par := run(1), run(6)
	if len(par.Records) != len(serial.Records) {
		t.Fatalf("%d records != serial %d", len(par.Records), len(serial.Records))
	}
	for i := range par.Records {
		a, b := par.Records[i], serial.Records[i]
		if a.QueryID != b.QueryID || a.Plan.Sig != b.Plan.Sig || a.CostSec != b.CostSec {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestCollectWithSharedEstimator collects through one estimator twice, as
// a System does on every Collect, and checks both datasets against
// Collect's own-estimator run: sharing the statistics changes nothing.
func TestCollectWithSharedEstimator(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	est, err := cardest.New(db, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCollectConfig()
	cfg.NumQueries, cfg.ResStatesPerPlan = 20, 2
	collect := func(f func(*Generator) (*Dataset, error)) uint64 {
		t.Helper()
		g, err := NewIMDBGenerator(db, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := f(g)
		if err != nil {
			t.Fatal(err)
		}
		return digestDataset(ds)
	}
	want := collect(func(g *Generator) (*Dataset, error) { return Collect(db, g, cfg) })
	for run := 0; run < 2; run++ {
		if got := collect(func(g *Generator) (*Dataset, error) { return CollectWith(est, g, cfg) }); got != want {
			t.Fatalf("run %d through the shared estimator: digest %#x, Collect's own %#x", run, got, want)
		}
	}
}
