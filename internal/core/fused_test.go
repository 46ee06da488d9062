package core

import (
	"testing"

	"raal/internal/autodiff"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/workload"
)

// corpusSamples collects and encodes a small workload over db: real plan
// shapes, lengths and child masks rather than the synthetic chains.
func corpusSamples(t *testing.T, db *catalog.Database, newGen func(*catalog.Database, int64) (*workload.Generator, error)) ([]*encode.Sample, Config) {
	t.Helper()
	gen, err := newGen(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultCollectConfig()
	cfg.NumQueries, cfg.ResStatesPerPlan, cfg.Seed = 24, 2, 1
	ds, err := workload.Collect(db, gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mc := DefaultConfig(enc.NodeDim()-enc.MaxNodes()-nodeStatFeatures, enc.MaxNodes())
	mc.Hidden, mc.K = 16, 8
	return ds.Encode(enc), mc
}

// rawForward scores samples one at a time on tp and returns the network's
// raw (log-scale, unclamped) outputs. On a recording tape this is the
// graph Fit differentiates.
func rawForward(m *Model, tp *autodiff.Tape, samples []*encode.Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		tp.Reset()
		out[i] = m.forward(tp, []*encode.Sample{s}, nil).Value.Data[0]
	}
	return out
}

// TestForwardOnlyMatchesRecordedOnCorpus is the licence for serving on
// forward-only tapes: over the IMDB and TPC-H sample corpora and every
// variant, Predict (pooled forward-only tapes, fused cell, bucketed
// chunks) must equal the recorded graph bit for bit.
func TestForwardOnlyMatchesRecordedOnCorpus(t *testing.T) {
	corpora := map[string]func() ([]*encode.Sample, Config){
		"imdb": func() ([]*encode.Sample, Config) {
			return corpusSamples(t, datagen.IMDB(0.02, 1), workload.NewIMDBGenerator)
		},
		"tpch": func() ([]*encode.Sample, Config) {
			return corpusSamples(t, datagen.TPCH(0.02, 1), workload.NewTPCHGenerator)
		},
	}
	for name, load := range corpora {
		samples, mc := load()
		for _, v := range goldenVariants() {
			m := NewModel(v, mc)
			tc := DefaultTrainConfig()
			tc.Epochs = 1 // off the init point, so gates are not all near σ(0)
			if _, err := m.Fit(samples, tc); err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/"+v.Name+"/f64", func(t *testing.T) { checkFusedMatchesRecorded(t, m, samples) })
		}
	}
}

func checkFusedMatchesRecorded(t *testing.T, m *Model, samples []*encode.Sample) {
	want := rawForward(m, autodiff.NewTape(), samples)
	got := rawForward(m, autodiff.NewInferenceTape(), samples)
	preds := predict(m, samples)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: forward-only %v != recorded %v (must be bit-identical)", i, got[i], want[i])
		}
		if p := invTransform(float64(want[i])); preds[i] != p {
			t.Fatalf("sample %d: Predict %v != decoded recorded output %v", i, preds[i], p)
		}
	}
}
