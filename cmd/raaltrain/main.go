// Command raaltrain collects a training corpus from a synthetic benchmark
// and trains a RAAL cost model, optionally saving it to disk.
//
// Usage:
//
//	raaltrain -bench imdb -queries 300 -epochs 30 -out model.raal
//	raaltrain -variant NE-LSTM -queries 100 -epochs 10
//	raaltrain -epochs 10 -checkpoint ck.raal             # stop early, keep state
//	raaltrain -resume ck.raal -epochs 10 -out model.raal # continue bit-exactly
//
// -checkpoint saves a resumable checkpoint (model + optimizer state +
// shuffle position) after training; -resume warm-starts from one and
// continues with the same seeds, reproducing the uninterrupted longer
// run bit for bit.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"raal"
)

func main() {
	var (
		bench      = flag.String("bench", "imdb", "benchmark: imdb or tpch")
		scale      = flag.Float64("scale", 0.1, "synthetic data scale factor")
		queries    = flag.Int("queries", 250, "generated queries")
		states     = flag.Int("states", 3, "resource states per plan")
		epochs     = flag.Int("epochs", 30, "training epochs")
		lr         = flag.Float64("lr", 3e-3, "learning rate")
		variant    = flag.String("variant", "RAAL", "RAAL, NE-LSTM, NA-LSTM, or RAAC")
		seed       = flag.Int64("seed", 1, "global seed")
		out        = flag.String("out", "", "path to save the trained model (optional)")
		resume     = flag.String("resume", "", "continue training from a checkpoint written by -checkpoint")
		checkpoint = flag.String("checkpoint", "", "path to save a resumable checkpoint after training (optional)")
	)
	flag.Parse()

	var v raal.Variant
	switch *variant {
	case "RAAL":
		v = raal.RAAL()
	case "NE-LSTM":
		v = raal.NELSTM()
	case "NA-LSTM":
		v = raal.NALSTM()
	case "RAAC":
		v = raal.RAAC()
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
		os.Exit(1)
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("opened %s: %d rows across %d tables\n", *bench, sys.TotalRows(), len(sys.Tables()))

	start := time.Now()
	ds, err := sys.Collect(raal.CollectOptions{
		NumQueries: *queries, ResStatesPerPlan: *states, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("collected %d records (%d plans, %d queries skipped) in %v\n",
		len(ds.Records), len(ds.Plans), ds.Skipped, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	// Progress lines read from the metrics registry rather than the raw
	// callback arguments — the same counters and gauges a /metrics scrape
	// would see, so the printed numbers are the telemetry, not a parallel
	// bookkeeping path.
	reg := raal.NewMetricsRegistry()
	epochs64 := reg.NewCounter("raal_train_epochs_total", "Completed training epochs.")
	loss64 := reg.NewGauge("raal_train_epoch_loss", "Latest epoch's sample-weighted mean training loss (log-cost MSE).")
	shards64 := reg.NewGauge("raal_train_shards_per_sec", "8-sample gradient shards trained per second in the latest epoch.")
	opts := raal.TrainOptions{
		Epochs: *epochs, LR: *lr, Seed: *seed,
		Metrics: reg,
		Progress: func(int, float64) {
			fmt.Printf("  epoch %2d: loss %.4f (%.0f shards/s)\n",
				epochs64.Value(), loss64.Value(), shards64.Value())
		},
	}

	var (
		cm     *raal.CostModel
		report *raal.TrainReport
	)
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fatal(err)
		}
		var st *raal.TrainState
		cm, st, err = raal.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *variant != "RAAL" && cm.Variant().Name != v.Name {
			fatal(fmt.Errorf("checkpoint %s holds a %s model but -variant asked for %s — a checkpoint can only continue the architecture it was trained with",
				*resume, cm.Variant().Name, v.Name))
		}
		v = cm.Variant()
		fmt.Printf("resuming %s from %s (%d epochs already trained)\n", v.Name, *resume, st.Epochs)
		report, err = raal.ResumeCostModel(cm, st, ds, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		cm, report, err = raal.TrainCostModel(ds, v, opts)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("trained %s on %d samples in %v\n", v.Name, report.TrainSamples, time.Since(start).Round(time.Millisecond))
	fmt.Printf("held-out (%d samples): %s\n", report.TestSamples, report.Held)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := cm.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *out)
	}
	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := raal.SaveCheckpoint(f, cm, report.State); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint saved to %s (resume with -resume %s)\n", *checkpoint, *checkpoint)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
