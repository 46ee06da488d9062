// Command bench is this repository's one end-to-end benchmark: four
// workloads that drive the public entry points of every layer from outside
// the program, five gated end-to-end metrics with the same names on every
// workload, and a traced mode that attributes an op's time to layers.
// BENCHMARK.json at the repository root declares the names; README.md says
// what each one is for.
//
//	bash bench/run.sh -workload select_sql_cold            # end-to-end metrics
//	bash bench/run.sh -workload select_sql_cold -trace 1   # per-layer metrics
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the stamped report goes to standard error
// and to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(full, os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(p params, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := 0
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 7, "query generator and draw order seed (data and model seeds are fixed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured-phase time budget")
	fs.IntVar(&o.windows, "windows", 0, "measure exactly this many windows instead of for -seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for the stamped report and the trace (empty writes none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v (trace must be 0 or 1)\n", fs.Args())
		return 2
	}
	o.trace = trace == 1

	rep, err := run(p, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	pretty, _ := json.MarshalIndent(rep, "", " ") // a report of numbers and strings always marshals
	fmt.Fprintf(stderr, "%s\n", pretty)
	if !rep.Result.Correct {
		fmt.Fprintf(stderr, "bench: %s: OUTPUT CHECK FAILED: %d of %d ops, first: %s\n",
			o.workload, rep.Result.Failed, rep.Result.Attempted, rep.Stamp.Error)
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
