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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"raal"
)

// main runs without a signal context: training cannot stop mid-epoch, so
// SIGINT keeps its default and ends the process at once.
func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "raaltrain:", err)
		os.Exit(1)
	}
}

// run is the command, with its inputs and outputs as parameters.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("raaltrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", "imdb", "benchmark: imdb or tpch")
		scale      = fs.Float64("scale", 0.1, "synthetic data scale factor")
		queries    = fs.Int("queries", 250, "generated queries")
		states     = fs.Int("states", 3, "resource states per plan")
		epochs     = fs.Int("epochs", 30, "training epochs")
		lr         = fs.Float64("lr", 3e-3, "learning rate")
		variant    = fs.String("variant", "RAAL", "RAAL, NE-LSTM, NA-LSTM, or RAAC (with -resume: must match the checkpoint)")
		seed       = fs.Int64("seed", 1, "global seed")
		out        = fs.String("out", "", "path to save the trained model (optional)")
		resume     = fs.String("resume", "", "continue training from a checkpoint written by -checkpoint")
		checkpoint = fs.String("checkpoint", "", "path to save a resumable checkpoint after training (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	variantSet := false
	fs.Visit(func(f *flag.Flag) { variantSet = variantSet || f.Name == "variant" })

	var v raal.Variant
	for _, known := range []raal.Variant{raal.RAAL(), raal.NELSTM(), raal.NALSTM(), raal.RAAC()} {
		if known.Name == *variant {
			v = known
		}
	}
	if v.Name == "" {
		return fmt.Errorf("unknown variant %q", *variant)
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "opened %s: %d rows across %d tables\n", *bench, sys.TotalRows(), len(sys.Tables()))

	start := time.Now()
	ds, err := sys.Collect(raal.CollectOptions{
		NumQueries: *queries, ResStatesPerPlan: *states, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "collected %d records (%d plans, %d queries skipped) in %v\n",
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
			fmt.Fprintf(stdout, "  epoch %2d: loss %.4f (%.0f shards/s)\n",
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
			return err
		}
		var st *raal.TrainState
		cm, st, err = raal.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", *resume, err)
		}
		if variantSet && cm.Variant().Name != v.Name {
			return fmt.Errorf("checkpoint %s holds a %s model but -variant asked for %s — a checkpoint can only continue the architecture it was trained with",
				*resume, cm.Variant().Name, v.Name)
		}
		v = cm.Variant()
		fmt.Fprintf(stdout, "resuming %s from %s (%d epochs already trained)\n", v.Name, *resume, st.Epochs)
		if report, err = raal.ResumeCostModel(cm, st, ds, opts); err != nil {
			return err
		}
	} else if cm, report, err = raal.TrainCostModel(ds, v, opts); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained %s on %d samples in %v\n", v.Name, report.TrainSamples, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "held-out (%d samples): %s\n", report.TestSamples, report.Held)

	if *out != "" {
		if err := writeFile(*out, cm.Save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model saved to %s\n", *out)
	}
	if *checkpoint != "" {
		save := func(w io.Writer) error { return raal.SaveCheckpoint(w, cm, report.State) }
		if err := writeFile(*checkpoint, save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint saved to %s (resume with -resume %s)\n", *checkpoint, *checkpoint)
	}
	return nil
}

// writeFile creates path and writes it with save; a failed close (the
// last write reaching the disk) is an error too.
func writeFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
