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
	"flag"
	"fmt"
	"os"
	"sort"

	"raal"
	"raal/internal/telemetry"
)

func main() {
	var (
		bench     = flag.String("bench", "imdb", "benchmark: imdb or tpch")
		scale     = flag.Float64("scale", 0.1, "synthetic data scale factor")
		query     = flag.String("sql", "", "SQL query (required)")
		executors = flag.Int("executors", 2, "executors")
		cores     = flag.Int("cores", 2, "cores per executor")
		memMB     = flag.Float64("mem", 4096, "executor memory (MB)")
		seed      = flag.Int64("seed", 1, "global seed")
		modelPath = flag.String("model", "", "trained cost model (from raaltrain -out) for plan selection")
		explain   = flag.Bool("explain", false, "print the per-stage cost breakdown of each plan")
		trace     = flag.Bool("trace", false, "with -model, print the model's per-stage inference timing for the picked plan")
		dotPath   = flag.String("dot", "", "write the cheapest plan as Graphviz DOT to this file")
	)
	flag.Parse()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "missing -sql")
		flag.Usage()
		os.Exit(1)
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		fatal(err)
	}
	res := raal.DefaultResources()
	res.Executors = *executors
	res.ExecCores = *cores
	res.ExecMemMB = *memMB

	plans, err := sys.Plan(*query)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d candidate plan(s); resources: %s\n\n", len(plans), res)

	type priced struct {
		idx int
		sec float64
	}
	var ranking []priced
	for i, p := range plans {
		if _, err := sys.Execute(p); err != nil {
			fatal(err)
		}
		sec, err := sys.Cost(p, res)
		if err != nil {
			fatal(err)
		}
		ranking = append(ranking, priced{i, sec})
		fmt.Printf("--- plan %d [%s]: %.2fs ---\n%s\n", i+1, p.Sig, sec, p)
		if *explain {
			b, err := sys.CostBreakdown(p, res)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-40s %6s %6s %9s %9s %9s %9s\n", "stage", "tasks", "waves", "cpu", "disk", "net", "total")
			for _, st := range b.Stages {
				fmt.Printf("%-40.40s %6d %6d %8.2fs %8.2fs %8.2fs %8.2fs\n",
					st.Label, st.Tasks, st.Waves, st.CPUSec, st.DiskSec, st.NetSec, st.Sec)
			}
			fmt.Println()
		}
	}
	sort.Slice(ranking, func(a, b int) bool { return ranking[a].sec < ranking[b].sec })
	fmt.Printf("cheapest (simulated truth): plan %d (%.2fs)\n", ranking[0].idx+1, ranking[0].sec)

	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		cm, err := raal.LoadCostModel(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		best, pred, err := cm.SelectPlanCtx(context.Background(), plans, res)
		if err != nil {
			fatal(err)
		}
		for i, p := range plans {
			if p == best {
				fmt.Printf("%s model picks:  plan %d (predicted %.2fs)\n", cm.Variant().Name, i+1, pred)
			}
		}
		if *trace {
			sp := telemetry.StartSpan("estimate")
			if _, err := cm.EstimateCtx(telemetry.WithSpan(context.Background(), sp), best, res); err != nil {
				fatal(err)
			}
			sp.End()
			fmt.Printf("inference breakdown (%v total):\n", sp.Total())
			for _, st := range sp.Stages() {
				fmt.Printf("  %-10s %v\n", st.Name, st.Dur)
			}
		}
	}

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(plans[ranking[0].idx].DOT()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("cheapest plan written to %s (render with: dot -Tsvg)\n", *dotPath)
	}

	rel, err := sys.Execute(plans[ranking[0].idx])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: %d row(s), columns %v\n", rel.N, rel.ColNames())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
