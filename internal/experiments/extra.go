package experiments

import (
	"io"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/sparksim"
)

// EncAblationResult compares the paper's word2vec node-semantic embedding
// against the one-hot strawman (Sec. IV-C's motivating argument).
type EncAblationResult struct {
	Word2Vec, OneHot metrics.Result
}

// EncAblation trains RAAL twice on the same records, once per encoding.
func EncAblation(lab *Lab) (*EncAblationResult, error) {
	// Word2vec branch: the lab's default encoder.
	w2vModel, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	w2vRes, err := w2vModel.Evaluate(lab.TestSamples)
	if err != nil {
		return nil, err
	}

	// One-hot branch: refit an encoder in one-hot mode over the same
	// plans and re-encode both splits.
	cfg := encode.DefaultConfig()
	cfg.Mode = encode.OneHot
	ohEnc, err := lab.Dataset.FitEncoder(cfg)
	if err != nil {
		return nil, err
	}
	ohTrain := make([]*encode.Sample, len(lab.TrainRecs))
	for i, r := range lab.TrainRecs {
		s := ohEnc.EncodePlan(r.Plan, r.Res)
		s.CostSec = r.CostSec
		ohTrain[i] = s
	}
	ohTest := make([]*encode.Sample, len(lab.TestRecs))
	for i, r := range lab.TestRecs {
		s := ohEnc.EncodePlan(r.Plan, r.Res)
		s.CostSec = r.CostSec
		ohTest[i] = s
	}
	semDim := ohEnc.NodeDim() - ohEnc.MaxNodes() - 2
	mcfg := core.DefaultConfig(semDim, ohEnc.MaxNodes())
	mcfg.Seed = lab.Opt.Seed
	ohModel, _, err := core.Train(ohTrain, core.RAAL(), mcfg, lab.TrainConfig())
	if err != nil {
		return nil, err
	}
	ohRes, err := ohModel.Evaluate(ohTest)
	if err != nil {
		return nil, err
	}
	return &EncAblationResult{Word2Vec: w2vRes, OneHot: ohRes}, nil
}

// Print renders the encoding comparison.
func (r *EncAblationResult) Print(w io.Writer) {
	fprintf(w, "Encoding ablation: word2vec vs one-hot node semantics\n")
	fprintf(w, "%-10s %10s %10s %10s %10s\n", "encoding", "RE", "MSE", "COR", "R2")
	fprintf(w, "%-10s %10.4f %10.4f %10.4f %10.4f\n", "one-hot", r.OneHot.RE, r.OneHot.MSE, r.OneHot.COR, r.OneHot.R2)
	fprintf(w, "%-10s %10.4f %10.4f %10.4f %10.4f\n", "word2vec", r.Word2Vec.RE, r.Word2Vec.MSE, r.Word2Vec.COR, r.Word2Vec.R2)
}

// SimAblationRow is one simulator configuration's memory sensitivity.
type SimAblationRow struct {
	Config    string
	CostAt    map[int]float64 // memory GB → cost of a reference plan
	SpreadPct float64         // (max-min)/min over the sweep
}

// SimAblationResult shows which simulator mechanisms create the paper's
// Sec.-III memory sensitivity: with cache and GC disabled, memory stops
// mattering — and a resource-aware cost model would have nothing to learn.
type SimAblationResult struct {
	Rows []SimAblationRow
}

// SimAblation prices one reference plan across memory sizes under three
// simulator configurations: full, no-cache, and no-cache-no-GC.
func SimAblation(lab *Lab) (*SimAblationResult, error) {
	if len(lab.TestRecs) == 0 {
		return nil, errNoRecords
	}
	// Pick the most expensive test plan as the reference.
	ref := lab.TestRecs[0]
	for _, r := range lab.TestRecs {
		if r.CostSec > ref.CostSec {
			ref = r
		}
	}

	configs := []struct {
		name string
		mod  func(*sparksim.Config)
	}{
		{"full", func(*sparksim.Config) {}},
		{"no-cache", func(c *sparksim.Config) { c.CacheFraction = 0 }},
		{"no-cache-no-gc", func(c *sparksim.Config) {
			c.CacheFraction = 0
			c.GCCoefPerGB = 0
			c.BroadcastOverflowPenalty = 1
			c.SpillPenalty = 0
		}},
	}
	out := &SimAblationResult{}
	for _, cfgSpec := range configs {
		conf := lab.SimConfig()
		conf.NoiseAmplitude = 0
		cfgSpec.mod(&conf)
		sim := sparksim.New(conf)
		row := SimAblationRow{Config: cfgSpec.name, CostAt: map[int]float64{}}
		min, max := 0.0, 0.0
		for mem := 1; mem <= 12; mem += 1 {
			res := sparksim.DefaultResources()
			res.ExecMemMB = float64(mem) * 1024
			c, err := sim.Estimate(ref.Plan, res)
			if err != nil {
				return nil, err
			}
			row.CostAt[mem] = c
			if min == 0 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min > 0 {
			row.SpreadPct = 100 * (max - min) / min
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Print renders cost-vs-memory per simulator configuration.
func (r *SimAblationResult) Print(w io.Writer) {
	fprintf(w, "Simulator ablation: memory sensitivity by mechanism (reference plan)\n")
	fprintf(w, "%-16s", "config")
	for mem := 1; mem <= 12; mem++ {
		fprintf(w, " %7dGB", mem)
	}
	fprintf(w, " %9s\n", "spread")
	for _, row := range r.Rows {
		fprintf(w, "%-16s", row.Config)
		for mem := 1; mem <= 12; mem++ {
			fprintf(w, " %9.2f", row.CostAt[mem])
		}
		fprintf(w, " %8.1f%%\n", row.SpreadPct)
	}
}
