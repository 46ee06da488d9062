package experiments

import (
	"context"
	"io"

	"raal/internal/core"
	"raal/internal/metrics"
)

// VariantMetrics is one row of an ablation table.
type VariantMetrics struct {
	Name    string
	Metrics metrics.Result
}

// AblationResult reproduces Table IV (module analysis) and Fig. 6 (loss
// curves) in one pass: the four architectures trained on the same corpus.
type AblationResult struct {
	Rows   []VariantMetrics
	Curves map[string][]float64 // Fig. 6: loss per epoch per variant
}

// Ablation trains RAAL, NE-LSTM, NA-LSTM, and RAAC on the lab's corpus and
// evaluates each on the held-out split.
func Ablation(lab *Lab) (*AblationResult, error) {
	if lab.ablation != nil {
		return lab.ablation, nil
	}
	out := &AblationResult{Curves: map[string][]float64{}}
	for _, v := range core.AllVariants() {
		model, tr, err := lab.TrainVariant(v)
		if err != nil {
			return nil, err
		}
		res, err := model.Evaluate(lab.TestSamples)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, VariantMetrics{Name: v.Name, Metrics: res})
		out.Curves[v.Name] = tr.LossCurve
		if v.Name == "RAAL" && lab.raalModel == nil {
			lab.raalModel = model
		}
	}
	lab.ablation = out
	return out, nil
}

// Print renders Table IV followed by the Fig. 6 loss series.
func (r *AblationResult) Print(w io.Writer) {
	fprintf(w, "Table IV: module analysis on held-out queries\n")
	fprintf(w, "%-10s %10s %10s %10s %10s\n", "model", "RE", "MSE", "COR", "R2")
	for _, row := range r.Rows {
		m := row.Metrics
		fprintf(w, "%-10s %10.4f %10.4f %10.4f %10.4f\n", row.Name, m.RE, m.MSE, m.COR, m.R2)
	}
	fprintf(w, "\nFig 6: training loss per epoch\n")
	for _, row := range r.Rows {
		fprintf(w, "%-10s", row.Name)
		for _, l := range r.Curves[row.Name] {
			fprintf(w, " %8.4f", l)
		}
		fprintf(w, "\n")
	}
}

// Table7Row is one architecture evaluated without and with the
// resource-aware attention layer.
type Table7Row struct {
	Name            string
	Without, With   metrics.Result
	BenchmarksLabel string
}

// Table7Result reproduces Table VII: the impact of resource-aware
// attention on every architecture, per benchmark.
type Table7Result struct {
	Bench string
	Rows  []Table7Row
}

// Table7 trains each architecture twice (resource-blind and
// resource-aware) on the lab's corpus.
func Table7(lab *Lab) (*Table7Result, error) {
	out := &Table7Result{Bench: lab.Opt.Bench}
	for _, v := range core.AllVariants() {
		var blindModel, awareModel *core.Model
		var err error
		if v.Name == "RAAL" {
			if blindModel, err = lab.BlindRAALModel(); err != nil {
				return nil, err
			}
			if awareModel, err = lab.RAALModel(); err != nil {
				return nil, err
			}
		} else {
			if blindModel, _, err = lab.TrainVariant(v.WithoutResources()); err != nil {
				return nil, err
			}
			if awareModel, _, err = lab.TrainVariant(v); err != nil {
				return nil, err
			}
		}
		blind, err := blindModel.Evaluate(lab.TestSamples)
		if err != nil {
			return nil, err
		}
		aware, err := awareModel.Evaluate(lab.TestSamples)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table7Row{Name: v.Name, Without: blind, With: aware})
	}
	return out, nil
}

// Print renders the without/with pairs, bold-right style as in the paper.
func (r *Table7Result) Print(w io.Writer) {
	fprintf(w, "Table VII (%s): without | with resource-aware attention\n", r.Bench)
	fprintf(w, "%-10s %21s %21s %21s\n", "model", "RE (w/o | w/)", "MSE (w/o | w/)", "COR (w/o | w/)")
	for _, row := range r.Rows {
		fprintf(w, "%-10s %10.4f|%10.4f %10.4f|%10.4f %10.4f|%10.4f\n", row.Name,
			row.Without.RE, row.With.RE,
			row.Without.MSE, row.With.MSE,
			row.Without.COR, row.With.COR)
	}
}

// Fig7Point is one scatter point: actual vs estimated cost.
type Fig7Point struct {
	Actual, Estimated float64
}

// Fig7Result reproduces Fig. 7: the scatter of actual vs estimated costs
// with and without resource-aware attention.
type Fig7Result struct {
	Bench        string
	WithRes      []Fig7Point
	WithoutRes   []Fig7Point
	WithMetrics  metrics.Result
	BlindMetrics metrics.Result
}

// Fig7 evaluates RAAL and its resource-blind twin on the test split and
// returns the scatter data.
func Fig7(lab *Lab) (*Fig7Result, error) {
	aware, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	blind, err := lab.BlindRAALModel()
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{Bench: lab.Opt.Bench}
	awareEst, _ := aware.PredictCtx(context.Background(), lab.TestSamples, core.PredictOpts{}) // Background never cancels
	blindEst, _ := blind.PredictCtx(context.Background(), lab.TestSamples, core.PredictOpts{})
	for i, s := range lab.TestSamples {
		out.WithRes = append(out.WithRes, Fig7Point{Actual: s.CostSec, Estimated: awareEst[i]})
		out.WithoutRes = append(out.WithoutRes, Fig7Point{Actual: s.CostSec, Estimated: blindEst[i]})
	}
	if out.WithMetrics, err = aware.Evaluate(lab.TestSamples); err != nil {
		return nil, err
	}
	if out.BlindMetrics, err = blind.Evaluate(lab.TestSamples); err != nil {
		return nil, err
	}
	return out, nil
}

// Print renders the scatter as CSV-ish series plus summary metrics.
func (r *Fig7Result) Print(w io.Writer) {
	fprintf(w, "Fig 7 (%s): actual vs estimated cost\n", r.Bench)
	fprintf(w, "with resource-aware attention:    %s\n", r.WithMetrics)
	fprintf(w, "without resource-aware attention: %s\n", r.BlindMetrics)
	fprintf(w, "%-12s %-12s %-12s\n", "actual", "est(with)", "est(without)")
	n := len(r.WithRes)
	if n > 25 {
		n = 25 // preview; the full series is in the result struct
	}
	for i := 0; i < n; i++ {
		fprintf(w, "%-12.2f %-12.2f %-12.2f\n",
			r.WithRes[i].Actual, r.WithRes[i].Estimated, r.WithoutRes[i].Estimated)
	}
	if len(r.WithRes) > n {
		fprintf(w, "... (%d points total)\n", len(r.WithRes))
	}
}
