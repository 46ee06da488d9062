// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) on the simulated substrate. Each experiment is a
// function returning a printable result; cmd/raalbench drives them, and
// this package's tests assert each one's shape.
//
// Scaled-down defaults (documented per run in EXPERIMENTS.md): the paper
// collected 63K IMDB / 50K TPC-H records on real clusters and trained for
// hours on a GPU; the harness defaults to a few thousand records and
// ~30 CPU epochs, which preserves the comparisons' shape.
package experiments

import (
	"fmt"
	"io"

	"raal/internal/catalog"
	"raal/internal/core"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/sparksim"
	"raal/internal/workload"
)

// Options sizes an experiment run.
type Options struct {
	// Bench selects the benchmark: "imdb" (Tencent-cloud setting) or
	// "tpch" (Ali-cloud setting).
	Bench string
	// Scale is the synthetic data scale factor.
	Scale float64
	// NumQueries is the number of generated queries.
	NumQueries int
	// ResStates is the number of random resource states per plan.
	ResStates int
	// Epochs / LR drive model training.
	Epochs int
	LR     float64
	Seed   int64
	// Workers bounds concurrent plan execution during collection; it
	// never changes results.
	Workers int
}

// DefaultOptions returns the full-size harness settings.
func DefaultOptions() Options {
	return Options{Bench: "imdb", Scale: 0.1, NumQueries: 250, ResStates: 3, Epochs: 30, LR: 3e-3, Seed: 1}
}

// QuickOptions returns small settings for smoke tests.
func QuickOptions() Options {
	return Options{Bench: "imdb", Scale: 0.03, NumQueries: 60, ResStates: 2, Epochs: 8, LR: 5e-3, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Bench == "" {
		o.Bench = d.Bench
	}
	if o.Scale == 0 {
		o.Scale = d.Scale
	}
	if o.NumQueries == 0 {
		o.NumQueries = d.NumQueries
	}
	if o.ResStates == 0 {
		o.ResStates = d.ResStates
	}
	if o.Epochs == 0 {
		o.Epochs = d.Epochs
	}
	if o.LR == 0 {
		o.LR = d.LR
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Lab is a prepared experiment environment: a benchmark database, a
// collected dataset, a fitted encoder, and aligned train/test splits.
type Lab struct {
	Opt     Options
	DB      *catalog.Database
	Dataset *workload.Dataset
	Enc     *encode.Encoder

	TrainRecs, TestRecs       []workload.Record
	TrainSamples, TestSamples []*encode.Sample

	// Cached trained models, shared by experiments that all need "a
	// trained RAAL" (fig1, table6, fig7, fig8, table9, ...).
	raalModel  *core.Model
	blindModel *core.Model
	ablation   *AblationResult
}

// RAALModel returns the lab's trained full RAAL, training it on first use.
func (l *Lab) RAALModel() (*core.Model, error) {
	if l.raalModel == nil {
		m, _, err := l.TrainVariant(core.RAAL())
		if err != nil {
			return nil, err
		}
		l.raalModel = m
	}
	return l.raalModel, nil
}

// BlindRAALModel returns the cached resource-blind RAAL twin.
func (l *Lab) BlindRAALModel() (*core.Model, error) {
	if l.blindModel == nil {
		m, _, err := l.TrainVariant(core.RAAL().WithoutResources())
		if err != nil {
			return nil, err
		}
		l.blindModel = m
	}
	return l.blindModel, nil
}

// NewLab generates data, collects records, and fits the encoder.
func NewLab(opt Options) (*Lab, error) {
	opt = opt.withDefaults()
	var db *catalog.Database
	var gen *workload.Generator
	var err error
	switch opt.Bench {
	case "imdb":
		db = datagen.IMDB(opt.Scale, opt.Seed)
		gen, err = workload.NewIMDBGenerator(db, opt.Seed)
	case "tpch":
		db = datagen.TPCH(opt.Scale, opt.Seed)
		gen, err = workload.NewTPCHGenerator(db, opt.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown benchmark %q", opt.Bench)
	}
	if err != nil {
		return nil, err
	}

	ccfg := workload.DefaultCollectConfig()
	ccfg.NumQueries = opt.NumQueries
	ccfg.ResStatesPerPlan = opt.ResStates
	ccfg.Seed = opt.Seed
	ccfg.Workers = opt.Workers
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

func (l *Lab) encodeRecords(recs []workload.Record) []*encode.Sample {
	out := make([]*encode.Sample, len(recs))
	for i, r := range recs {
		s := l.Enc.EncodePlan(r.Plan, r.Res)
		s.CostSec = r.CostSec
		out[i] = s
	}
	return out
}

// ModelConfig returns the core model dimensions matching the lab's encoder.
func (l *Lab) ModelConfig() core.Config {
	semDim := l.Enc.NodeDim() - l.Enc.MaxNodes() - 2
	cfg := core.DefaultConfig(semDim, l.Enc.MaxNodes())
	cfg.Seed = l.Opt.Seed
	return cfg
}

// TrainConfig returns the training settings for this lab.
func (l *Lab) TrainConfig() core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Epochs = l.Opt.Epochs
	tc.LR = l.Opt.LR
	tc.Seed = l.Opt.Seed
	return tc
}

// TrainVariant trains one model variant on the lab's training split.
func (l *Lab) TrainVariant(v core.Variant) (*core.Model, *core.TrainResult, error) {
	return core.Train(l.TrainSamples, v, l.ModelConfig(), l.TrainConfig())
}

// SimConfig returns the simulator calibration used during collection.
func (l *Lab) SimConfig() sparksim.Config { return sparksim.DefaultConfig() }

// fprintf writes formatted output, ignoring errors (report printing).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
