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

// AQERow compares three plan-choice regimes on one query.
type AQERow struct {
	Query      int
	DefaultSec float64 // static rule-based choice (estimates only)
	AQESec     float64 // default plan, joins re-decided from runtime sizes
	RAALSec    float64 // RAAL's static resource-aware choice
}

// AQEResult contrasts the paper's learned *static* plan choice with
// Spark-3.x-style adaptive execution built on runtime statistics.
type AQEResult struct {
	Rows     []AQERow
	Switched int // joins the AQE pass converted across all queries
}

// AQE evaluates 20 held-out queries under all three regimes.
func AQE(lab *Lab) (*AQEResult, error) {
	model, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	planner := physical.NewPlanner(lab.Dataset.Est)
	binder := logical.NewBinder(lab.DB)
	eng := engine.New(lab.DB)
	eng.MaxRows = 2_000_000
	sim := sparksim.New(lab.SimConfig())
	sim.Seed = lab.Opt.Seed

	var gen *workload.Generator
	if lab.Opt.Bench == "tpch" {
		gen, err = workload.NewTPCHGenerator(lab.DB, lab.Opt.Seed+303)
	} else {
		gen, err = workload.NewIMDBGenerator(lab.DB, lab.Opt.Seed+303)
	}
	if err != nil {
		return nil, err
	}

	res := sparksim.DefaultResources()
	out := &AQEResult{}
	attempts := 0
	for len(out.Rows) < 20 && attempts < 400 {
		attempts++
		stmt, err := sql.Parse(gen.GenerateOne())
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

		defPlan := plans[0]
		aqePlan, sw := physical.Reoptimize(defPlan, planner.BroadcastThreshold)
		out.Switched += sw

		samples := make([]*encode.Sample, len(plans))
		for i, p := range plans {
			samples[i] = lab.Enc.EncodePlan(p, res)
		}
		// Background never cancels; rank finite predictions only, as
		// CostModel.SelectPlanCtx does.
		preds, _ := model.PredictCtx(context.Background(), samples, core.PredictOpts{})
		bestIdx := max(metrics.ArgminFinite(preds), 0)

		defSec, err := sim.Estimate(defPlan, res)
		if err != nil {
			return nil, err
		}
		aqeSec, err := sim.Estimate(aqePlan, res)
		if err != nil {
			return nil, err
		}
		raalSec, err := sim.Estimate(plans[bestIdx], res)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AQERow{
			Query: len(out.Rows) + 1, DefaultSec: defSec, AQESec: aqeSec, RAALSec: raalSec,
		})
	}
	return out, nil
}

// Totals sums each regime's execution time.
func (r *AQEResult) Totals() (def, aqe, raal float64) {
	for _, row := range r.Rows {
		def += row.DefaultSec
		aqe += row.AQESec
		raal += row.RAALSec
	}
	return
}

// Print renders the three-way comparison.
func (r *AQEResult) Print(w io.Writer) {
	fprintf(w, "AQE: static default vs runtime-adaptive vs RAAL choice (seconds)\n")
	fprintf(w, "%-8s %12s %12s %12s\n", "query", "default", "AQE", "RAAL")
	for _, row := range r.Rows {
		fprintf(w, "q%-7d %12.2f %12.2f %12.2f\n", row.Query, row.DefaultSec, row.AQESec, row.RAALSec)
	}
	d, a, m := r.Totals()
	fprintf(w, "%-8s %12.2f %12.2f %12.2f   (%d joins switched by AQE)\n", "total", d, a, m, r.Switched)
}
