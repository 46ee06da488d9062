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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"raal/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
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
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", r.Name, r.Description)
		}
		return 0
	}

	// Resolve the experiment before anything touches the filesystem: an
	// unknown name must not leave an empty report in the tracked tree.
	runners := experiments.Registry()
	if *exp != "all" {
		r, err := experiments.Lookup(*exp)
		if err != nil {
			return fail(err)
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
			return fail(err)
		}
		path := filepath.Join(*outDir, "bench_results_"+name+".txt")
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
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
			return fail(err)
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
			return fail(fmt.Errorf("%s: %v", r.Name, err))
		}
		fmt.Fprintf(out, "=== %s (%s) — %v ===\n", r.Name, r.Description, time.Since(start).Round(time.Millisecond))
		rep.Print(out)
		fmt.Fprintln(out)

		if *csvDir != "" {
			if c, ok := rep.(experiments.CSVer); ok {
				if err := writeCSV(*csvDir, r.Name, c); err != nil {
					return fail(fmt.Errorf("csv %s: %v", r.Name, err))
				}
			}
		}
		if *jsonOut {
			if j, ok := rep.(experiments.JSONer); ok {
				dir := *outDir
				if dir == "" {
					dir = "."
				}
				path, err := writeJSON(dir, r.Name, j)
				if err != nil {
					return fail(fmt.Errorf("json %s: %v", r.Name, err))
				}
				fmt.Fprintf(stdout, "wrote %s\n", path)
			}
		}
	}
	return 0
}

func writeJSON(dir, name string, j experiments.JSONer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return path, j.JSON(f)
}

func writeCSV(dir, name string, c experiments.CSVer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name + ".csv")
	if err != nil {
		return err
	}
	defer f.Close()
	return c.CSV(f)
}
