package experiments

import (
	"context"
	"io"
	"math"
	"time"

	"raal/internal/baselines"
	"raal/internal/core"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/sparksim"
	"raal/internal/workload"
)

// Table5Result reproduces Table V: RAAL vs TLSTM under fixed resources
// (the relational-database setting: Spark installed locally, resources
// pinned for every query).
type Table5Result struct {
	RAAL, TLSTM metrics.Result
}

// Table5 collects a fixed-resource corpus and compares the two learned
// models on it. Fixed resources yield a single record per plan (there is
// no resource grid multiplying the corpus), so the query count is doubled
// to keep the training-set size comparable to the other experiments.
func Table5(opt Options) (*Table5Result, error) {
	opt = opt.withDefaults()
	opt.NumQueries *= 2
	fixed := sparksim.DefaultResources()

	lab, err := newLabWithFixedRes(opt, &fixed)
	if err != nil {
		return nil, err
	}

	raal, _, err := lab.TrainVariant(core.RAAL())
	if err != nil {
		return nil, err
	}
	raalRes, err := raal.Evaluate(lab.TestSamples)
	if err != nil {
		return nil, err
	}

	semDim := lab.Enc.NodeDim() - lab.Enc.MaxNodes() - 2
	tl := baselines.NewTLSTM(baselines.TLSTMConfig{
		SemDim: semDim, MaxNodes: lab.Enc.MaxNodes(), Hidden: 32, Seed: opt.Seed,
	})
	if _, err := tl.Fit(lab.TrainSamples, opt.Epochs, 16, opt.LR, opt.Seed); err != nil {
		return nil, err
	}
	tlRes, err := tl.Evaluate(lab.TestSamples)
	if err != nil {
		return nil, err
	}
	return &Table5Result{RAAL: raalRes, TLSTM: tlRes}, nil
}

// newLabWithFixedRes builds a lab whose records all share one resource
// allocation (the paper's "local Spark installation" setting).
func newLabWithFixedRes(opt Options, fixed *sparksim.Resources) (*Lab, error) {
	opt = opt.withDefaults()
	var db = datagen.IMDB(opt.Scale, opt.Seed)
	var gen *workload.Generator
	var err error
	if opt.Bench == "tpch" {
		db = datagen.TPCH(opt.Scale, opt.Seed)
		gen, err = workload.NewTPCHGenerator(db, opt.Seed)
	} else {
		gen, err = workload.NewIMDBGenerator(db, opt.Seed)
	}
	if err != nil {
		return nil, err
	}
	ccfg := workload.DefaultCollectConfig()
	ccfg.NumQueries = opt.NumQueries
	ccfg.Seed = opt.Seed
	ccfg.Workers = opt.Workers
	ccfg.FixedRes = fixed
	ds, err := workload.Collect(db, gen, ccfg)
	if err != nil {
		return nil, err
	}
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lab := &Lab{Opt: opt, DB: db, Dataset: ds, Enc: enc}
	lab.TrainRecs, lab.TestRecs = ds.SplitRecords(0.8, opt.Seed)
	lab.TrainSamples = lab.encodeRecords(lab.TrainRecs)
	lab.TestSamples = lab.encodeRecords(lab.TestRecs)
	return lab, nil
}

// Print renders the comparison.
func (r *Table5Result) Print(w io.Writer) {
	fprintf(w, "Table V: RAAL vs TLSTM (fixed resources)\n")
	fprintf(w, "%-8s %10s %10s %10s %10s\n", "model", "RE", "MSE", "COR", "R2")
	fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f\n", "TLSTM", r.TLSTM.RE, r.TLSTM.MSE, r.TLSTM.COR, r.TLSTM.R2)
	fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f\n", "RAAL", r.RAAL.RE, r.RAAL.MSE, r.RAAL.COR, r.RAAL.R2)
}

// Table6Result reproduces Table VI: RAAL vs the analytical GPSJ model.
type Table6Result struct {
	RAAL, GPSJ metrics.Result
}

// Table6 compares RAAL with GPSJ on the lab's test records.
func Table6(lab *Lab) (*Table6Result, error) {
	raal, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	raalRes, err := raal.Evaluate(lab.TestSamples)
	if err != nil {
		return nil, err
	}

	g := baselines.NewGPSJ(lab.SimConfig())
	actual := make([]float64, len(lab.TestRecs))
	est := make([]float64, len(lab.TestRecs))
	actLog := make([]float64, len(lab.TestRecs))
	estLog := make([]float64, len(lab.TestRecs))
	for i, r := range lab.TestRecs {
		actual[i] = r.CostSec
		est[i] = g.Estimate(r.Plan, r.Res)
		actLog[i] = math.Log1p(actual[i])
		estLog[i] = math.Log1p(est[i])
	}
	gres, err := metrics.Evaluate(actual, est)
	if err != nil {
		return nil, err
	}
	gres.MSE = metrics.MSE(actLog, estLog)
	return &Table6Result{RAAL: raalRes, GPSJ: gres}, nil
}

// Print renders the comparison.
func (r *Table6Result) Print(w io.Writer) {
	fprintf(w, "Table VI: RAAL vs GPSJ\n")
	fprintf(w, "%-8s %10s %10s %10s %10s\n", "model", "RE", "MSE", "COR", "R2")
	fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f\n", "GPSJ", r.GPSJ.RE, r.GPSJ.MSE, r.GPSJ.COR, r.GPSJ.R2)
	fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f\n", "RAAL", r.RAAL.RE, r.RAAL.MSE, r.RAAL.COR, r.RAAL.R2)
}

// Table9Row is one model's online estimation latency.
type Table9Row struct {
	Model    string
	MsPer100 float64
}

// Table9Result reproduces Table IX: online estimation time per 100 queries.
type Table9Result struct {
	Rows []Table9Row
}

// Table9 measures batched inference latency of RAAL, TLSTM, and GPSJ on
// 100 test samples.
func Table9(lab *Lab) (*Table9Result, error) {
	n := 100
	if len(lab.TestSamples) < n {
		n = len(lab.TestSamples)
	}
	samples := lab.TestSamples[:n]
	recs := lab.TestRecs[:n]

	raal, err := lab.RAALModel()
	if err != nil {
		return nil, err
	}
	semDim := lab.Enc.NodeDim() - lab.Enc.MaxNodes() - 2
	tl := baselines.NewTLSTM(baselines.TLSTMConfig{
		SemDim: semDim, MaxNodes: lab.Enc.MaxNodes(), Hidden: 32, Seed: lab.Opt.Seed,
	})
	tcfg := lab.TrainConfig()
	if _, err := tl.Fit(lab.TrainSamples, 2, tcfg.Batch, tcfg.LR, tcfg.Seed); err != nil {
		return nil, err
	}
	g := baselines.NewGPSJ(lab.SimConfig())

	timeIt := func(f func()) float64 {
		// Warm once, then time the best of 3 runs.
		f()
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := float64(time.Since(start).Microseconds()) / 1000; d < best {
				best = d
			}
		}
		return best * 100 / float64(n)
	}

	out := &Table9Result{}
	out.Rows = append(out.Rows, Table9Row{"RAAL", timeIt(func() { raal.PredictCtx(context.Background(), samples, core.PredictOpts{}) })})
	out.Rows = append(out.Rows, Table9Row{"TLSTM", timeIt(func() { tl.Predict(samples) })})
	out.Rows = append(out.Rows, Table9Row{"GPSJ", timeIt(func() {
		for _, r := range recs {
			g.Estimate(r.Plan, r.Res)
		}
	})})
	return out, nil
}

// Print renders the latency table.
func (r *Table9Result) Print(w io.Writer) {
	fprintf(w, "Table IX: online estimation time per 100 queries (ms)\n")
	for _, row := range r.Rows {
		fprintf(w, "%-8s %10.3f\n", row.Model, row.MsPer100)
	}
}
