package experiments

import (
	"context"
	"io"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/metrics"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/sql"
	"raal/internal/workload"
)

// Fig1Row is one query of Fig. 1: execution time under the default
// rule-based cost model's plan choice vs the RAAL-tuned choice.
type Fig1Row struct {
	Query      int
	DefaultSec float64
	TunedSec   float64
}

// Fig1Result reproduces Fig. 1 (default vs optimized cost model on 20
// queries).
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 trains RAAL on the lab's corpus, then compares plan choices on 20
// unseen queries under the default resource allocation.
func Fig1(lab *Lab) (*Fig1Result, error) {
	model, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	return Fig1WithModel(lab, model)
}

// Fig1WithModel runs the comparison with an already-trained model.
func Fig1WithModel(lab *Lab, model *core.Model) (*Fig1Result, error) {
	planner := physical.NewPlanner(lab.Dataset.Est)
	binder := logical.NewBinder(lab.DB)
	eng := engine.New(lab.DB)
	eng.MaxRows = 2_000_000
	sim := sparksim.New(lab.SimConfig())
	sim.Seed = lab.Opt.Seed

	var gen *workload.Generator
	var err error
	if lab.Opt.Bench == "tpch" {
		gen, err = workload.NewTPCHGenerator(lab.DB, lab.Opt.Seed+101)
	} else {
		gen, err = workload.NewIMDBGenerator(lab.DB, lab.Opt.Seed+101)
	}
	if err != nil {
		return nil, err
	}

	res := sparksim.DefaultResources()
	out := &Fig1Result{}
	attempts := 0
	for len(out.Rows) < 20 && attempts < 400 {
		attempts++
		qs := gen.GenerateOne()
		stmt, err := sql.Parse(qs)
		if err != nil {
			continue
		}
		bound, err := binder.Bind(stmt)
		if err != nil {
			continue
		}
		plans, err := planner.Enumerate(bound)
		if err != nil {
			continue
		}
		if len(plans) > 3 {
			plans = plans[:3]
		}
		ok := true
		for _, p := range plans {
			if _, err := eng.Run(p); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// The default rule-based choice is the first enumerated plan
		// (greedy order + threshold joins + pushdown).
		defPlan := plans[0]

		// RAAL choice: encode every candidate under res, pick the
		// cheapest prediction.
		samples := make([]*encode.Sample, len(plans))
		for i, p := range plans {
			samples[i] = lab.Enc.EncodePlan(p, res)
		}
		// Background never cancels; rank finite predictions only, as
		// CostModel.SelectPlanCtx does.
		preds, _ := model.PredictCtx(context.Background(), samples, core.PredictOpts{})
		best := plans[max(metrics.ArgminFinite(preds), 0)]

		defSec, err := sim.Estimate(defPlan, res)
		if err != nil {
			return nil, err
		}
		tunedSec, err := sim.Estimate(best, res)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig1Row{Query: len(out.Rows) + 1, DefaultSec: defSec, TunedSec: tunedSec})
	}
	return out, nil
}

// TotalDefault sums the default-choice execution times.
func (r *Fig1Result) TotalDefault() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.DefaultSec
	}
	return s
}

// TotalTuned sums the tuned-choice execution times.
func (r *Fig1Result) TotalTuned() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.TunedSec
	}
	return s
}

// Print renders the figure data as a table.
func (r *Fig1Result) Print(w io.Writer) {
	fprintf(w, "Fig 1: query execution time, default cost model vs RAAL-tuned (seconds)\n")
	fprintf(w, "%-8s %12s %12s\n", "query", "default", "tuned")
	for _, row := range r.Rows {
		fprintf(w, "q%-7d %12.2f %12.2f\n", row.Query, row.DefaultSec, row.TunedSec)
	}
	if r.TotalDefault() > 0 {
		fprintf(w, "%-8s %12.2f %12.2f  (%.1f%% reduction)\n", "total",
			r.TotalDefault(), r.TotalTuned(), 100*(1-r.TotalTuned()/r.TotalDefault()))
	}
}
