// Command raalquery plans, executes, and prices a single SQL query on a
// synthetic benchmark with a simulated cluster — the quickest way to see
// the substrate end to end.
//
// Usage:
//
//	raalquery -sql "SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500"
//	raalquery -bench tpch -executors 4 -mem 8192 -sql "SELECT COUNT(*) FROM lineitem"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"raal"
	"raal/internal/telemetry"
)

// main runs without a signal context: a query runs to its end, so SIGINT
// keeps its default and ends the process at once.
func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "raalquery:", err)
		os.Exit(1)
	}
}

// run is the command, with its inputs and outputs as parameters.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("raalquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "imdb", "benchmark: imdb or tpch")
		scale     = fs.Float64("scale", 0.1, "synthetic data scale factor")
		query     = fs.String("sql", "", "SQL query (required)")
		executors = fs.Int("executors", 2, "executors")
		cores     = fs.Int("cores", 2, "cores per executor")
		memMB     = fs.Float64("mem", 4096, "executor memory (MB)")
		seed      = fs.Int64("seed", 1, "global seed")
		modelPath = fs.String("model", "", "trained cost model (from raaltrain -out) for plan selection")
		explain   = fs.Bool("explain", false, "print the per-stage cost breakdown of each plan")
		trace     = fs.Bool("trace", false, "with -model, print the model's per-stage inference timing for the picked plan")
		dotPath   = fs.String("dot", "", "write the cheapest plan as Graphviz DOT to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		fs.Usage()
		return errors.New("missing -sql")
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		return err
	}
	res := raal.DefaultResources()
	res.Executors = *executors
	res.ExecCores = *cores
	res.ExecMemMB = *memMB

	plans, err := sys.Plan(*query)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d candidate plan(s); resources: %s\n\n", len(plans), res)

	// Every plan is executed once; the cheapest one's relation is the
	// printed result.
	var (
		best    int
		bestSec float64
		bestRel *raal.Relation
	)
	for i, p := range plans {
		rel, err := sys.Execute(p)
		if err != nil {
			return err
		}
		sec, err := sys.Cost(p, res)
		if err != nil {
			return err
		}
		if i == 0 || sec < bestSec {
			best, bestSec, bestRel = i, sec, rel
		}
		fmt.Fprintf(stdout, "--- plan %d [%s]: %.2fs ---\n%s\n", i+1, p.Sig, sec, p)
		if *explain {
			b, err := sys.CostBreakdown(p, res)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-40s %6s %6s %9s %9s %9s %9s\n", "stage", "tasks", "waves", "cpu", "disk", "net", "total")
			for _, st := range b.Stages {
				fmt.Fprintf(stdout, "%-40.40s %6d %6d %8.2fs %8.2fs %8.2fs %8.2fs\n",
					st.Label, st.Tasks, st.Waves, st.CPUSec, st.DiskSec, st.NetSec, st.Sec)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "cheapest (simulated truth): plan %d (%.2fs)\n", best+1, bestSec)

	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		cm, err := raal.LoadCostModel(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", *modelPath, err)
		}
		pick, pred, err := cm.SelectPlanCtx(ctx, plans, res)
		if err != nil {
			return err
		}
		for i, p := range plans {
			if p == pick {
				fmt.Fprintf(stdout, "%s model picks:  plan %d (predicted %.2fs)\n", cm.Variant().Name, i+1, pred)
			}
		}
		if *trace {
			sp := telemetry.StartSpan("estimate")
			if _, err := cm.EstimateCtx(telemetry.WithSpan(ctx, sp), pick, res); err != nil {
				return err
			}
			sp.End()
			fmt.Fprintf(stdout, "inference breakdown (%v total):\n", sp.Total())
			for _, st := range sp.Stages() {
				fmt.Fprintf(stdout, "  %-10s %v\n", st.Name, st.Dur)
			}
		}
	}

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(plans[best].DOT()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cheapest plan written to %s (render with: dot -Tsvg)\n", *dotPath)
	}
	fmt.Fprintf(stdout, "result: %d row(s), columns %v\n", bestRel.N, bestRel.ColNames())
	return nil
}
