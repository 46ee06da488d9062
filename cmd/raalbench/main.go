// Command raalbench regenerates the paper's tables and figures on the
// simulated substrate, plus the seeded online drift drill.
//
// Usage:
//
//	raalbench -list
//	raalbench -exp table4
//	raalbench -exp all -bench imdb -queries 250 -epochs 30
//	raalbench -exp table7 -quick
//	raalbench -exp online -json
//
// Experiments that train models share one prepared lab per invocation, so
// running -exp all reuses the collected corpus.
//
// This is not the performance benchmark: the end-to-end benchmark binary
// is the separate module under bench/ (BENCHMARK.json), which bench/run.sh
// also builds under the name raalbench.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"raal/internal/experiments"
)

// main runs without a signal context: an experiment cannot stop midway,
// so SIGINT keeps its default and ends the process at once.
func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "raalbench:", err)
		os.Exit(1)
	}
}

// run is the command, with its inputs and outputs as parameters.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("raalbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments and exit")
		exp     = fs.String("exp", "all", "experiment name (see -list) or 'all'")
		bench   = fs.String("bench", "imdb", "benchmark: imdb or tpch")
		scale   = fs.Float64("scale", 0, "synthetic data scale factor (0 = default)")
		queries = fs.Int("queries", 0, "generated queries for the corpus (0 = default)")
		states  = fs.Int("states", 0, "resource states per plan (0 = default)")
		epochs  = fs.Int("epochs", 0, "training epochs (0 = default)")
		seed    = fs.Int64("seed", 1, "global seed")
		quick   = fs.Bool("quick", false, "small settings for a fast smoke run")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV data (figures only)")
		jsonOut = fs.Bool("json", false, "also write machine-readable BENCH_<exp>.json to -outdir for experiments that support it (online)")
		outDir  = fs.String("outdir", "results", "directory for the bench report file, mirrored to stdout (empty = stdout only)")
		workers = fs.Int("workers", 0, "collection worker goroutines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", r.Name, r.Description)
		}
		return nil
	}

	// Resolve the experiment before anything touches the filesystem: an
	// unknown name must not leave an empty report in the tracked tree.
	runners := experiments.Registry()
	if *exp != "all" {
		r, err := experiments.Lookup(*exp)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}

	// The report goes to stdout and, by default, to
	// results/bench_results_<exp>.txt (or bench_results_<bench>.txt for a
	// full run), so experiment output lands in the tracked results tree
	// instead of littering the repo root.
	out := stdout
	if *outDir != "" {
		name := *exp
		if name == "all" {
			name = *bench
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, "bench_results_"+name+".txt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
		fmt.Fprintf(stdout, "writing report to %s\n", path)
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	opt.Bench = *bench
	if *scale > 0 {
		opt.Scale = *scale
	}
	if *queries > 0 {
		opt.NumQueries = *queries
	}
	if *states > 0 {
		opt.ResStates = *states
	}
	if *epochs > 0 {
		opt.Epochs = *epochs
	}
	opt.Seed = *seed
	opt.Workers = *workers

	var lab *experiments.Lab
	needsLab := false
	for _, r := range runners {
		if r.NeedsLab {
			needsLab = true
		}
	}
	if needsLab {
		fmt.Fprintf(out, "preparing lab: bench=%s scale=%.2f queries=%d states=%d ...\n",
			opt.Bench, opt.Scale, opt.NumQueries, opt.ResStates)
		start := time.Now()
		var err error
		lab, err = experiments.NewLab(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "lab ready in %v: %d train / %d test samples\n\n",
			time.Since(start).Round(time.Millisecond), len(lab.TrainSamples), len(lab.TestSamples))
	}

	for _, r := range runners {
		start := time.Now()
		var rep experiments.Report
		var err error
		if r.NeedsLab {
			rep, err = r.RunLab(lab)
		} else {
			rep, err = r.Run(opt)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", r.Name, err)
		}
		fmt.Fprintf(out, "=== %s (%s) — %v ===\n", r.Name, r.Description, time.Since(start).Round(time.Millisecond))
		rep.Print(out)
		fmt.Fprintln(out)

		if *csvDir != "" {
			if c, ok := rep.(experiments.CSVer); ok {
				if _, err := writeFile(*csvDir, r.Name+".csv", c.CSV); err != nil {
					return fmt.Errorf("csv %s: %v", r.Name, err)
				}
			}
		}
		if *jsonOut {
			if j, ok := rep.(experiments.JSONer); ok {
				dir := *outDir
				if dir == "" {
					dir = "."
				}
				path, err := writeFile(dir, "BENCH_"+r.Name+".json", j.JSON)
				if err != nil {
					return fmt.Errorf("json %s: %v", r.Name, err)
				}
				fmt.Fprintf(stdout, "wrote %s\n", path)
			}
		}
	}
	return nil
}

// writeFile creates dir/name and fills it with write; a failed close (the
// last write reaching the disk) is an error too.
func writeFile(dir, name string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
